package npu

import (
	"fmt"

	"sdmmon/internal/apps"
	"sdmmon/internal/asm"
	"sdmmon/internal/mhash"
	"sdmmon/internal/monitor"
)

// §4.2 notes that while a secure installation takes ~25 s, "switching
// between applications already installed on the network processor can be
// done quickly to accommodate dynamic changes in workload by keeping
// multiple binaries and graphs in memory." This file implements that
// library: verified bundles are kept resident per NP, and a core switches
// to any resident application without touching the cryptographic path.

// residentApp is one verified bundle kept in NP memory.
type residentApp struct {
	name   string
	binary []byte
	graph  []byte
	param  uint32
}

// LoadLibrary verifies and stores a bundle in the NP's resident library
// without installing it on any core. The caller (the control processor)
// must have verified the package signature first — identical trust model to
// Install.
func (np *NP) LoadLibrary(name string, binary, graph []byte, param uint32) error {
	// Validate once at load time so Switch can be unconditional.
	prog, err := asm.Deserialize(binary)
	if err != nil {
		return fmt.Errorf("npu: library %q: binary: %w", name, err)
	}
	g, err := monitor.Deserialize(graph)
	if err != nil {
		return fmt.Errorf("npu: library %q: graph: %w", name, err)
	}
	if err := g.Validate(prog, np.cfg.NewHasher(param)); err != nil {
		return fmt.Errorf("npu: library %q: %w", name, err)
	}
	if np.library == nil {
		np.library = map[string]*residentApp{}
	}
	np.library[name] = &residentApp{name: name, binary: binary, graph: graph, param: param}
	return nil
}

// Library lists the resident application names.
func (np *NP) Library() []string {
	var out []string
	for name := range np.library {
		out = append(out, name)
	}
	return out
}

// Switch points a core at a resident application. This is the fast path of
// the paper's parenthetical: no download, no RSA, no AES — just a reload of
// the core's program memory and monitor state. It returns the simulated
// cost in core cycles (the binary copy into instruction memory), which is
// microseconds at 100 MHz versus ~25 s for a fresh secure installation.
func (np *NP) Switch(coreID int, name string) (cycles uint64, err error) {
	if coreID < 0 || coreID >= len(np.slots) {
		return 0, fmt.Errorf("npu: core %d out of range", coreID)
	}
	app, ok := np.library[name]
	if !ok {
		return 0, fmt.Errorf("npu: application %q not resident", name)
	}
	if err := np.Install(coreID, app.name, app.binary, app.graph, app.param); err != nil {
		return 0, err
	}
	// Cost model: one cycle per 32-bit word copied from shared memory into
	// the core's instruction store plus a fixed reset sequence. The graph
	// is already resident in monitor memory (banked), so only the bank
	// select contributes.
	prog, err := asm.Deserialize(app.binary)
	if err != nil {
		return 0, err
	}
	words := uint64(len(prog.CodeWords()))
	const resetSequence = 64
	return words + resetSequence, nil
}

// LoadLibraryApp is a convenience: assemble a built-in application, extract
// its graph under a fresh hasher parameter, verify, and make it resident.
func (np *NP) LoadLibraryApp(app *apps.App, param uint32) error {
	prog, err := app.Program()
	if err != nil {
		return err
	}
	g, err := monitor.Extract(prog, np.cfg.NewHasher(param))
	if err != nil {
		return err
	}
	return np.LoadLibrary(app.Name, prog.Serialize(), g.Serialize(), param)
}

// NewBenchNP builds an NP with the named application ("" selects ipv4cm)
// and its monitoring graph installed on every core, the hash parameter
// derived from seed: the standard fixture of the shard and tenant model
// benches.
func NewBenchNP(appName string, cores int, seed int64) (*NP, error) {
	if appName == "" {
		appName = "ipv4cm"
	}
	app, err := apps.ByName(appName)
	if err != nil {
		return nil, err
	}
	prog, err := app.Program()
	if err != nil {
		return nil, err
	}
	param := uint32(seed)*2654435761 + 0x600D
	g, err := monitor.Extract(prog, mhash.NewMerkle(param))
	if err != nil {
		return nil, err
	}
	np, err := New(Config{Cores: cores, MonitorsEnabled: true})
	if err != nil {
		return nil, err
	}
	if err := np.InstallAll(appName, prog.Serialize(), g.Serialize(), param); err != nil {
		return nil, err
	}
	return np, nil
}
