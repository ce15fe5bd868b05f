package cpu_test

import (
	"encoding/binary"
	"testing"

	"sdmmon/internal/apps"
	"sdmmon/internal/mhash"
	"sdmmon/internal/monitor"
	"sdmmon/internal/packet"
)

// FuzzStepPortEquivalence runs ipv4cm on two cores with the same monitor:
// one steps it through the port (cpu.CPU.Attach, hashes from the core's
// word cache), the other through the trace hook (PackedMonitor.Observe,
// uncached). The fuzzer writes random words at random code addresses, one
// before each packet, so the word cache sees new words at pcs it has
// already served and invalid words the core must trap on. After every
// packet both cores must agree on verdict, cycles, exception, registers,
// pc and the monitor's alarm, alarm pc and checked count.
func FuzzStepPortEquivalence(f *testing.F) {
	prog, err := apps.IPv4CM().Program()
	if err != nil {
		f.Fatal(err)
	}
	code := prog.CodeWords()
	gen := packet.NewGenerator(5)
	gen.OptionWords = 1
	pkt := gen.Next()
	f.Add(uint32(0x2468ACE0), []byte{})
	f.Add(uint32(7), []byte{0, 0, 0, 3, 0xFC, 0, 0, 0})
	f.Add(uint32(0xDEADBEEF), []byte{0, 0, 0, 9, 0x24, 2, 0, 1, 0, 0, 0, 9, 0x24, 2, 0, 7})
	f.Fuzz(func(t *testing.T, param uint32, muts []byte) {
		if len(muts) > 8*16 {
			muts = muts[:8*16]
		}
		h := mhash.NewMerkle(param)
		g, err := monitor.Extract(prog, h)
		if err != nil {
			t.Fatal(err)
		}
		packed, err := monitor.Pack(g)
		if err != nil {
			t.Fatal(err)
		}
		newMon := func() *monitor.PackedMonitor {
			m, err := monitor.NewPacked(packed, h)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		portMon, traceMon := newMon(), newMon()
		portCore, traceCore := apps.NewCore(prog), apps.NewCore(prog)
		portCore.CPU().Attach(portMon, h, nil)
		traceCore.Trace = traceMon.Observe
		for _, c := range []*apps.Core{portCore, traceCore} {
			c.MaxCyclesPerPacket = 20_000
		}
		for round := 0; round <= len(muts)/8; round++ {
			if m := muts[8*round:]; len(m) >= 8 {
				addr := code[int(binary.BigEndian.Uint32(m)%uint32(len(code)))].Addr
				w := binary.BigEndian.Uint32(m[4:])
				portCore.Mem().Store32(addr, w)
				traceCore.Mem().Store32(addr, w)
			}
			portMon.Reset()
			traceMon.Reset()
			pr, tr := portCore.Process(pkt, 0), traceCore.Process(pkt, 0)
			if pr.Verdict != tr.Verdict || pr.Cycles != tr.Cycles || (pr.Exc == nil) != (tr.Exc == nil) ||
				(pr.Exc != nil && *pr.Exc != *tr.Exc) {
				t.Fatalf("round %d: port %+v exc %v, trace %+v exc %v", round, pr, pr.Exc, tr, tr.Exc)
			}
			pc, tc := portCore.CPU(), traceCore.CPU()
			if pc.Regs != tc.Regs || pc.PC != tc.PC || pc.Hi != tc.Hi || pc.Lo != tc.Lo {
				t.Fatalf("round %d: architectural state diverges: port pc %#x, trace pc %#x", round, pc.PC, tc.PC)
			}
			pchk, _, _ := portMon.Counters()
			tchk, _, _ := traceMon.Counters()
			if portMon.Alarmed() != traceMon.Alarmed() || portMon.AlarmPC() != traceMon.AlarmPC() || pchk != tchk {
				t.Fatalf("round %d: monitor port alarm=%v pc=%#x checked=%d, trace alarm=%v pc=%#x checked=%d",
					round, portMon.Alarmed(), portMon.AlarmPC(), pchk, traceMon.Alarmed(), traceMon.AlarmPC(), tchk)
			}
			if pr.Exc != nil {
				portCore.Recover()
				traceCore.Recover()
			}
		}
	})
}
