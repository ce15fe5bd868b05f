package attack

import (
	"math/rand"
	"testing"

	"sdmmon/internal/apps"
	"sdmmon/internal/isa"
	"sdmmon/internal/mhash"
	"sdmmon/internal/monitor"
	"sdmmon/internal/packet"
)

// Attack-side equivalence of the monitoring fast path: the flattened
// PackedMonitor with a word-keyed FastHasher must reach exactly the same
// alarm decisions as the map-based reference monitor with an uncached
// hasher — on the E8 stack smash and on packet-derived (self-modified)
// code, the case where a PC-keyed cache would be wrong.

func fastAndRefMonitors(t *testing.T, param uint32) (*monitor.PackedMonitor, *monitor.Monitor, *apps.Core, *apps.Core) {
	t.Helper()
	prog, err := apps.IPv4CM().Program()
	if err != nil {
		t.Fatal(err)
	}
	ref := mhash.NewMerkle(param)
	g, err := monitor.Extract(prog, ref)
	if err != nil {
		t.Fatal(err)
	}
	p, err := monitor.Pack(g)
	if err != nil {
		t.Fatal(err)
	}
	fastMon, err := monitor.NewPacked(p, mhash.NewFastDefault(mhash.NewMerkle(param)))
	if err != nil {
		t.Fatal(err)
	}
	refMon, err := monitor.New(g, ref)
	if err != nil {
		t.Fatal(err)
	}
	fastCore, refCore := apps.NewCore(prog), apps.NewCore(prog)
	fastCore.Trace = fastMon.Observe
	refCore.Trace = refMon.Observe
	return fastMon, refMon, fastCore, refCore
}

// portCore builds an ipv4cm core whose packed monitor is stepped through
// the core's port (cpu.CPU.Attach), as the NP wires it: hashes come from
// the core's own word cache over an uncached hash unit.
func portCore(t *testing.T, param uint32) (*monitor.PackedMonitor, *apps.Core) {
	t.Helper()
	prog, err := apps.IPv4CM().Program()
	if err != nil {
		t.Fatal(err)
	}
	h := mhash.NewMerkle(param)
	g, err := monitor.Extract(prog, h)
	if err != nil {
		t.Fatal(err)
	}
	p, err := monitor.Pack(g)
	if err != nil {
		t.Fatal(err)
	}
	m, err := monitor.NewPacked(p, h)
	if err != nil {
		t.Fatal(err)
	}
	c := apps.NewCore(prog)
	c.CPU().Attach(m, h, nil)
	return m, c
}

// TestFastPathEquivalenceE8Attack: both implementations detect the
// stack-smash hijack, at the same instruction, every time.
func TestFastPathEquivalenceE8Attack(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	smash := DefaultSmash()
	code, err := smash.HijackPayload()
	if err != nil {
		t.Fatal(err)
	}
	atk, err := smash.CraftPacket(code)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		fastMon, refMon, fastCore, refCore := fastAndRefMonitors(t, rng.Uint32())
		// Warm the hash cache and monitors with benign traffic first, so
		// the attack hits a fully populated cache.
		gen := packet.NewGenerator(int64(trial))
		gen.OptionWords = 1
		for i := 0; i < 10; i++ {
			pkt := gen.Next()
			fastMon.Reset()
			refMon.Reset()
			fastCore.Process(pkt, 0)
			refCore.Process(pkt, 0)
		}
		fastMon.Reset()
		refMon.Reset()
		fr := fastCore.Process(atk, 0)
		rr := refCore.Process(atk, 0)
		if !fastMon.Alarmed() || !refMon.Alarmed() {
			t.Fatalf("trial %d: alarm fast=%v ref=%v", trial, fastMon.Alarmed(), refMon.Alarmed())
		}
		if fr.Exc == nil || rr.Exc == nil {
			t.Fatalf("trial %d: attack not stopped (fast exc=%v ref exc=%v)", trial, fr.Exc, rr.Exc)
		}
		if fastMon.AlarmPC() != refMon.AlarmPC() {
			t.Fatalf("trial %d: alarm pc fast=%#x ref=%#x", trial, fastMon.AlarmPC(), refMon.AlarmPC())
		}
		fc, _, _ := fastMon.Counters()
		rc, _, _ := refMon.Counters()
		if fc != rc {
			t.Fatalf("trial %d: checked fast=%d ref=%d", trial, fc, rc)
		}
	}
}

// TestFastPathPacketDerivedCode executes two *different* attacker payloads
// that land at the *same* packet-memory addresses, back to back on one
// core. A PC-keyed hash cache would replay the first payload's hashes for
// the second run and could diverge from the reference; the word-keyed
// cache hashes what actually retired, so the fast path stays bit-identical
// on every run.
func TestFastPathPacketDerivedCode(t *testing.T) {
	smash := DefaultSmash()
	hijack, err := smash.HijackPayload()
	if err != nil {
		t.Fatal(err)
	}
	// A second, distinct payload at the same address: ALU words then a
	// register jump. Content differs word-for-word from the hijack payload.
	alt := []isa.Word{
		isa.Word(0x24020001), // li $v0, 1
		isa.Word(0x24420041), // addiu $v0, $v0, 0x41
		isa.Word(0x00421021), // addu $v0, $v0, $v0
		isa.Word(0x03E00008), // jr $ra
		isa.Word(0x00000000), // nop
	}
	pktA, err := smash.CraftPacket(hijack)
	if err != nil {
		t.Fatal(err)
	}
	pktB, err := smash.CraftPacket(alt)
	if err != nil {
		t.Fatal(err)
	}

	param := uint32(0x2468ACE0)
	fastMon, refMon, fastCore, refCore := fastAndRefMonitors(t, param)
	portMon, pcore := portCore(t, param)

	for round, pkt := range [][]byte{pktA, pktB, pktA} {
		fastMon.Reset()
		refMon.Reset()
		portMon.Reset()
		fastCore.Process(pkt, 0)
		refCore.Process(pkt, 0)
		pcore.Process(pkt, 0)
		if fastMon.Alarmed() != refMon.Alarmed() {
			t.Fatalf("round %d: alarm fast=%v ref=%v", round, fastMon.Alarmed(), refMon.Alarmed())
		}
		if fastMon.AlarmPC() != refMon.AlarmPC() {
			t.Fatalf("round %d: alarm pc fast=%#x ref=%#x", round, fastMon.AlarmPC(), refMon.AlarmPC())
		}
		fc, _, _ := fastMon.Counters()
		rc, _, _ := refMon.Counters()
		if fc != rc {
			t.Fatalf("round %d: checked fast=%d ref=%d", round, fc, rc)
		}
		// The core's word cache is keyed by word too: the port core,
		// whose cache outlives every round, agrees with the reference.
		if portMon.Alarmed() != refMon.Alarmed() {
			t.Fatalf("round %d: alarm port=%v ref=%v", round, portMon.Alarmed(), refMon.Alarmed())
		}
		if portMon.AlarmPC() != refMon.AlarmPC() {
			t.Fatalf("round %d: alarm pc port=%#x ref=%#x", round, portMon.AlarmPC(), refMon.AlarmPC())
		}
		if pchk, _, _ := portMon.Counters(); pchk != rc {
			t.Fatalf("round %d: checked port=%d ref=%d", round, pchk, rc)
		}
	}

	// The cache serves correct per-word hashes for both payloads even
	// though they occupied the same addresses.
	fh := mhash.NewFastDefault(mhash.NewMerkle(param))
	ref := mhash.NewMerkle(param)
	for _, w := range append(append([]isa.Word{}, hijack...), alt...) {
		if fh.Hash(uint32(w)) != ref.Hash(uint32(w)) {
			t.Fatalf("word %#x: cached hash diverges from reference", uint32(w))
		}
	}
}
