// Package fleet is the hierarchical control plane over thousands of
// simulated routers: routers are organized into groups behind aggregation
// tiers (each group shares one lossy management link with its own virtual
// clock), and releases roll out in waves — canary → 1% → 25% → 100% — with
// a health gate between waves. A failed gate halts the rollout and rolls
// the failed wave back over the same lossy links; the resumable FleetReport
// lets a restarted controller pick up exactly where it stopped.
//
// The payload is the paper's homogeneity defense operationalized (§3.2,
// SR2): every rollout is a hash-parameter rotation, assigning each router a
// pairwise-distinct Merkle parameter from a seeded plan, so a brute-forced
// monitor bypass against one router never transfers to another.
//
// Routers here are lightweight — an NP plus a persisted anti-downgrade
// ledger behind a checksummed wire bundle — mirroring network.Fleet: the
// full RSA installation path is exercised end-to-end in internal/core and
// internal/network with small fleets; a thousand RSA identities would only
// slow the control-plane experiments down without changing them. What the
// wire checksum models is the property the retry loop needs: a corrupted
// bundle is detected at the router and retried, never trusted.
package fleet

import (
	"errors"
	"fmt"

	"sdmmon/internal/apps"
	"sdmmon/internal/fault"
	"sdmmon/internal/mhash"
	"sdmmon/internal/monitor"
	"sdmmon/internal/network"
	"sdmmon/internal/npu"
	"sdmmon/internal/packet"
	"sdmmon/internal/rollout"
	"sdmmon/internal/seccrypto"
)

// Router lifecycle errors.
var (
	// ErrDowngrade: a bundle's sequence is at or below the router's
	// high-water mark (replay or downgrade; never retried into acceptance).
	ErrDowngrade = errors.New("fleet: bundle sequence regression")
	// ErrNothingStaged: a commit command arrived with no staged bundle and
	// a live image older than the commanded release (e.g. the router
	// crashed between stage and commit).
	ErrNothingStaged = errors.New("fleet: nothing staged to commit")
)

// SimRouter is one fleet member: a monitored NP, the persisted
// anti-downgrade ledger (flash; survives crashes), and the volatile staged
// state (RAM; lost on crash).
type SimRouter struct {
	ID string
	NP *npu.NP

	ledger *seccrypto.SequenceLedger

	// staged is the manifest of the bundle sitting in the NP's shadow
	// slots, nil when nothing is staged. Volatile: Crash clears it.
	staged *seccrypto.Manifest
	// live is the manifest of the committed installation (zero before the
	// first commit through the control plane).
	live seccrypto.Manifest
	// byzantine routers claim perfect health regardless of reality.
	byzantine bool
	// crashAfterStage arms a one-shot power-cycle fired right after the
	// next successful stage (the mid-wave crash drill).
	crashAfterStage bool

	probe *packet.Generator
}

// Byzantine marks the router as lying in health reports.
func (r *SimRouter) Byzantine() { r.byzantine = true }

// CrashAfterStage arms a one-shot crash fired right after the router's
// next successful stage — before the commit command can land.
func (r *SimRouter) CrashAfterStage() { r.crashAfterStage = true }

// LiveParam reports the hash parameter of the live installation.
func (r *SimRouter) LiveParam() (uint32, bool) { return r.NP.ParamOn(0) }

// ApplyBundle is the router's end of a bundle delivery: verify the
// checksum (a corrupted datagram fails here and is retried by the sender,
// exactly like a bad signature), enforce anti-downgrade against the
// persisted ledger, and stage the bundle into the NP's shadow slots. The
// ledger's high-water mark advances only at commit, so a crash that loses
// the staged state leaves the release deliverable again.
func (r *SimRouter) ApplyBundle(wire []byte) error {
	b, err := DecodeBundle(wire)
	if err != nil {
		return err
	}
	if b.Manifest.Sequence <= r.ledger.HighWater(b.Manifest.AppName) {
		return fmt.Errorf("%w: %s seq %d, high-water %d", ErrDowngrade,
			b.Manifest.AppName, b.Manifest.Sequence, r.ledger.HighWater(b.Manifest.AppName))
	}
	if r.staged != nil && *r.staged == b.Manifest {
		// Duplicate copy of an already-staged release: idempotent.
		return nil
	}
	if err := r.NP.StageInstallAll(b.Manifest.AppName, b.Binary, b.Graph, b.Param); err != nil {
		return err
	}
	m := b.Manifest
	r.staged = &m
	return nil
}

// ApplyCommand executes a commit or rollback command addressed at one
// release. Both are idempotent under redelivery: a duplicate commit for the
// already-live release and a duplicate rollback for an already-rolled-back
// release succeed without touching the NP — command datagrams are
// duplicated and retried by the same lossy links the bundles cross.
func (r *SimRouter) ApplyCommand(wire []byte) error {
	c, err := DecodeCommand(wire)
	if err != nil {
		return err
	}
	switch c.Op {
	case OpCommit:
		if r.live == c.Manifest {
			return nil // duplicate commit: already live
		}
		if r.staged == nil || *r.staged != c.Manifest {
			return fmt.Errorf("%w: commit %s", ErrNothingStaged, c.Manifest)
		}
		if _, err := r.NP.CommitAll(); err != nil {
			return err
		}
		if err := r.ledger.Accept(c.Manifest.AppName, c.Manifest.Sequence); err != nil {
			return err
		}
		r.live = c.Manifest
		r.staged = nil
		return nil
	case OpRollback:
		if r.live != c.Manifest {
			return nil // duplicate rollback: that release is no longer live
		}
		if _, err := r.NP.RollbackAll(); err != nil {
			return err
		}
		// The ledger keeps its high-water mark: rolling back restores the
		// old code, not the old replay-protection state — the fixed release
		// that follows draws a fresh, higher sequence.
		r.live = seccrypto.Manifest{}
		return nil
	}
	return fmt.Errorf("fleet: unknown command op %d", c.Op)
}

// Crash power-cycles the router mid-rollout: the staged shadow slots (RAM)
// are lost, the ledger (flash) survives. The live installation keeps
// serving after the reboot.
func (r *SimRouter) Crash() {
	r.NP.AbortAllStaged()
	r.staged = nil
}

// Probe pushes n benign packets through the router and returns two
// samples: observed is the controller's own ground truth (its probe
// responses), claimed is what the router reports back — a byzantine router
// claims a clean window regardless of what actually happened. The
// controller never gates on claimed values; it cross-checks them.
func (r *SimRouter) Probe(n int) (observed, claimed rollout.Sample) {
	for i := 0; i < n; i++ {
		res, err := r.NP.ProcessOn(0, r.probe.Next(), 0)
		observed.Processed++
		if err != nil {
			// A quarantined or unloadable core is itself a health event.
			observed.Faults++
			continue
		}
		if res.Detected {
			observed.Alarms++
		}
		if res.Faulted {
			observed.Faults++
		}
	}
	if r.byzantine {
		return observed, rollout.Sample{Processed: observed.Processed}
	}
	return observed, observed
}

// Group is one aggregation tier: a set of routers behind a shared lossy
// management link with its own virtual clock.
type Group struct {
	Index   int
	Routers []*SimRouter
	Link    *network.LossyLink
}

// Config sizes and seeds a fleet.
type Config struct {
	// Routers is the fleet size (>= 2: a canary plus at least one more).
	Routers int
	// GroupSize is routers per aggregation group; 0 selects 32.
	GroupSize int
	// Seed drives every random stream: initial parameters, link faults,
	// retry jitter, rotation assignment, probe traffic.
	Seed int64
	// Faults is the per-group management-link fault model.
	Faults fault.LinkFaults
	// App defaults to the vulnerable ipv4cm.
	App *apps.App
	// Compression selects the Merkle compression function; nil is the
	// paper's arithmetic sum. The rotation experiments use the S-box
	// compression — under the sum, engineered hash matches are
	// parameter-independent and rotation buys no containment (the
	// collapse finding in internal/network).
	Compression mhash.Compress
	// Partitions schedules blackhole windows per group index (virtual
	// seconds on that group's link clock).
	Partitions map[int][]fault.PartitionLink
}

// Fleet is the built topology plus the operator-side release state.
type Fleet struct {
	Groups []*Group
	App    *apps.App
	Seed   int64

	binary []byte // serialized application, shared by every bundle
	mkHash func(uint32) mhash.Hasher
	seq    uint64 // operator's monotonic release counter
}

// New builds a fleet: every router starts with the *same* hash parameter —
// the homogeneous deployment the paper warns about and the rotation rollout
// repairs — and version 0 of the application installed directly (the
// pre-control-plane state).
func New(cfg Config) (*Fleet, error) {
	if cfg.Routers < 2 {
		return nil, fmt.Errorf("fleet: %d routers (need >= 2)", cfg.Routers)
	}
	if cfg.GroupSize <= 0 {
		cfg.GroupSize = 32
	}
	if cfg.App == nil {
		cfg.App = apps.IPv4CM()
	}
	prog, err := cfg.App.Program()
	if err != nil {
		return nil, err
	}
	mk := func(p uint32) mhash.Hasher { return mhash.NewMerkle(p) }
	if cfg.Compression != nil {
		comp := cfg.Compression
		mk = func(p uint32) mhash.Hasher {
			h, err := mhash.NewMerkleWith(p, 4, comp)
			if err != nil {
				panic(err) // width 4 is always valid
			}
			return h
		}
	}
	shared := uint32(network.DeriveSeed(cfg.Seed, "fleet-initial-param"))
	sharedGraph, err := monitor.Extract(prog, mk(shared))
	if err != nil {
		return nil, err
	}
	binary := prog.Serialize()
	graph := sharedGraph.Serialize()

	f := &Fleet{App: cfg.App, Seed: cfg.Seed, mkHash: mk, binary: binary}
	nGroups := (cfg.Routers + cfg.GroupSize - 1) / cfg.GroupSize
	for g := 0; g < nGroups; g++ {
		link := network.NewLossyLink(network.GigE(), cfg.Faults,
			network.DeriveSeed(cfg.Seed, fmt.Sprintf("group-%d", g)))
		link.Partitions = cfg.Partitions[g]
		grp := &Group{Index: g, Link: link}
		for i := g * cfg.GroupSize; i < (g+1)*cfg.GroupSize && i < cfg.Routers; i++ {
			id := fmt.Sprintf("np-%04d", i)
			np, err := npu.New(npu.Config{Cores: 1, MonitorsEnabled: true, NewHasher: mk})
			if err != nil {
				return nil, err
			}
			if err := np.InstallAll(cfg.App.Name, binary, graph, shared); err != nil {
				return nil, err
			}
			grp.Routers = append(grp.Routers, &SimRouter{
				ID:     id,
				NP:     np,
				ledger: seccrypto.NewSequenceLedger(),
				probe:  packet.NewGenerator(network.DeriveSeed(cfg.Seed, "probe-"+id)),
			})
		}
		f.Groups = append(f.Groups, grp)
	}
	return f, nil
}

// Size returns the router count.
func (f *Fleet) Size() int {
	n := 0
	for _, g := range f.Groups {
		n += len(g.Routers)
	}
	return n
}

// Routers returns the fleet flattened in rollout order (group-major, which
// is also ID order).
func (f *Fleet) Routers() []*SimRouter {
	out := make([]*SimRouter, 0, f.Size())
	for _, g := range f.Groups {
		out = append(out, g.Routers...)
	}
	return out
}

// Router finds a fleet member by ID.
func (f *Fleet) Router(id string) *SimRouter {
	for _, g := range f.Groups {
		for _, r := range g.Routers {
			if r.ID == id {
				return r
			}
		}
	}
	return nil
}

// LiveParams collects every router's live hash parameter, keyed by ID —
// the evidence behind the pairwise-distinct rotation invariant.
func (f *Fleet) LiveParams() map[string]uint32 {
	out := make(map[string]uint32, f.Size())
	for _, g := range f.Groups {
		for _, r := range g.Routers {
			if p, ok := r.LiveParam(); ok {
				out[r.ID] = p
			}
		}
	}
	return out
}

// Hasher builds the fleet's hash unit for a parameter (attacker tooling in
// the bypass experiments).
func (f *Fleet) Hasher(param uint32) mhash.Hasher { return f.mkHash(param) }

// BuildRelease assembles the next release's per-router bundles under a
// rotation plan: each router's monitoring graph is extracted under its
// assigned parameter, so the bundle only validates against that parameter
// on that router. All bundles share one manifest (one release, one
// sequence number).
func (f *Fleet) BuildRelease(plan *RotationPlan) (seccrypto.Manifest, map[string][]byte, error) {
	f.seq++
	man := seccrypto.Manifest{
		AppName:  f.App.Name,
		Version:  fmt.Sprintf("rot.%d", f.seq),
		Sequence: f.seq,
	}
	wires, err := f.releaseWires(man, plan)
	return man, wires, err
}

// releaseWires rebuilds the per-router bundles for an existing release
// manifest — the resume path re-derives byte-identical payloads from the
// report's manifest and the seed-pure rotation plan.
func (f *Fleet) releaseWires(man seccrypto.Manifest, plan *RotationPlan) (map[string][]byte, error) {
	prog, err := f.App.Program()
	if err != nil {
		return nil, err
	}
	if man.Sequence > f.seq {
		f.seq = man.Sequence
	}
	wires := make(map[string][]byte, len(plan.Params))
	for id, param := range plan.Params {
		g, err := monitor.Extract(prog, f.mkHash(param))
		if err != nil {
			return nil, fmt.Errorf("fleet: extract for %s: %w", id, err)
		}
		wires[id] = EncodeBundle(Bundle{
			Manifest: man,
			Param:    param,
			Binary:   f.binary,
			Graph:    g.Serialize(),
		})
	}
	return wires, nil
}
