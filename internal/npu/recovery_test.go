package npu

import (
	"slices"
	"strings"
	"testing"

	"sdmmon/internal/apps"
	"sdmmon/internal/attack"
	"sdmmon/internal/cpu"
	"sdmmon/internal/isa"
	"sdmmon/internal/packet"
)

// Satellite to the resilience tentpole: §2.1's recovery sequence is not
// just "no false alarms afterwards" — it is a full state reset. After the
// E8 stack-smash alarm the stack pointer and PC are back at their reset
// values, the monitor is re-armed, the forensic trace still shows the
// alarm until the next packet claims the core, and a benign packet
// forwards immediately.
func TestStackSmashRecoveryResetsAllState(t *testing.T) {
	np, err := New(Config{Cores: 1, MonitorsEnabled: true, TraceDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	bin, g := makeBundle(t, apps.IPv4CM(), 0xFACE)
	if err := np.InstallAll("ipv4cm", bin, g, 0xFACE); err != nil {
		t.Fatal(err)
	}
	smash := attack.DefaultSmash()
	code, err := smash.HijackPayload()
	if err != nil {
		t.Fatal(err)
	}
	atk, err := smash.CraftPacket(code)
	if err != nil {
		t.Fatal(err)
	}

	res, err := np.ProcessOn(0, atk, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected || res.Verdict != apps.VerdictDrop {
		t.Fatalf("stack smash not detected+dropped: %+v", res)
	}

	slot := np.slots[0]
	// Core state: recovery ran eagerly at the alarm, so the CPU is
	// already back at its reset state — stack pointer cleared, PC at the
	// program entry, no leftover register contents from the hijack.
	c := slot.core.CPU()
	if c.Regs[isa.RegSP] != 0 {
		t.Errorf("stack pointer not reset after alarm: %#x", c.Regs[isa.RegSP])
	}
	if c.PC != slot.core.Program().Entry {
		t.Errorf("PC %#x not at entry %#x after alarm", c.PC, slot.core.Program().Entry)
	}
	for r, v := range c.Regs {
		if v != 0 {
			t.Errorf("register %s not cleared after alarm: %#x", isa.RegName(uint32(r)), v)
		}
	}
	// Monitor state: re-armed (a still-alarmed monitor would flag every
	// subsequent instruction as part of the old attack).
	if slot.mon.Alarmed() {
		t.Error("monitor still alarmed after recovery")
	}
	// Forensic state: the trace of the attack survives until the next
	// packet — this is the window the operator (and npsim -trace) reads.
	dump := np.TraceDump(0, 32)
	if dump == "" || !strings.Contains(dump, "!!") {
		t.Fatalf("forensic trace lost at recovery:\n%s", dump)
	}

	// Continuation: the very next benign packet forwards, and by then the
	// tracer holds only that packet's instructions — no stale attack
	// entries, no Rejected markers.
	benign := packet.NewGenerator(7).Next()
	res, err = np.ProcessOn(0, benign, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected || res.Verdict != apps.VerdictForward {
		t.Fatalf("benign packet after recovery: %+v, want clean forward", res)
	}
	for _, e := range slot.tracer.Last(64) {
		if e.Rejected {
			t.Fatalf("stale attack entry in post-recovery trace: seq %d pc %#x", e.Seq, e.PC)
		}
	}
	if got := slot.tracer.Retired(); got == 0 || got > res.Cycles {
		t.Errorf("tracer retired %d, want only the benign packet's %d instructions", got, res.Cycles)
	}

	// Accounting: one alarm, one drop, one forward, exactly conserved.
	s := np.Stats()
	if s.Alarms != 1 || s.Forwarded != 1 || !s.Conserved() {
		t.Fatalf("recovery accounting wrong: %+v", s)
	}
}

// TestForensicRingThroughPortE8: with a forensic ring the fast path still
// attaches the monitor through the core's port — no trace-hook fallback —
// and the ring records every instruction the monitor checked, flagging
// exactly the one it alarmed on. The ring matches a Reference NP's
// (monitor behind the trace hook) entry for entry.
func TestForensicRingThroughPortE8(t *testing.T) {
	smash := attack.DefaultSmash()
	code, err := smash.HijackPayload()
	if err != nil {
		t.Fatal(err)
	}
	atk, err := smash.CraftPacket(code)
	if err != nil {
		t.Fatal(err)
	}
	const depth = 4096
	rings := make([][]cpu.TraceEntry, 2)
	for i, reference := range []bool{false, true} {
		np, err := New(Config{Cores: 1, MonitorsEnabled: true, TraceDepth: depth, Reference: reference})
		if err != nil {
			t.Fatal(err)
		}
		bin, g := makeBundle(t, apps.IPv4CM(), 0xFACE)
		if err := np.InstallAll("ipv4cm", bin, g, 0xFACE); err != nil {
			t.Fatal(err)
		}
		slot := np.slots[0]
		if !reference && slot.core.Trace != nil {
			t.Fatal("fast path attached the monitor through the trace hook")
		}
		res, err := np.ProcessOn(0, atk, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Detected {
			t.Fatalf("reference=%v: stack smash not detected: %+v", reference, res)
		}
		checked, _, _ := slot.mon.Counters()
		ring := slot.tracer.Last(depth)
		if uint64(len(ring)) != checked || slot.tracer.Retired() != checked {
			t.Fatalf("reference=%v: ring holds %d of %d entries, monitor checked %d",
				reference, len(ring), slot.tracer.Retired(), checked)
		}
		for k, e := range ring {
			last := k == len(ring)-1
			if e.Rejected != last || (last && e.PC != slot.mon.AlarmPC()) {
				t.Fatalf("reference=%v: entry %d/%d %+v, alarm pc %#x", reference, k, len(ring), e, slot.mon.AlarmPC())
			}
		}
		rings[i] = ring
	}
	if !slices.Equal(rings[0], rings[1]) {
		t.Fatal("fast-path ring differs from the reference ring")
	}
}
