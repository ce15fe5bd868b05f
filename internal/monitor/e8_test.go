package monitor_test

import (
	"fmt"
	"testing"

	"sdmmon/internal/apps"
	"sdmmon/internal/attack"
	"sdmmon/internal/isa"
	"sdmmon/internal/mhash"
	"sdmmon/internal/monitor"
	"sdmmon/internal/packet"
)

// TestCompiledExactE8 holds the compiled step, the bitmap step and the
// map-based Monitor to the same observables on the E8 stack smash and on
// packet-derived code: two different payloads at the same packet-memory
// addresses, back to back, between benign packets.
func TestCompiledExactE8(t *testing.T) {
	smash := attack.DefaultSmash()
	hijack, err := smash.HijackPayload()
	if err != nil {
		t.Fatal(err)
	}
	alt := []isa.Word{
		isa.Word(0x24020001), // li $v0, 1
		isa.Word(0x24420041), // addiu $v0, $v0, 0x41
		isa.Word(0x00421021), // addu $v0, $v0, $v0
		isa.Word(0x03E00008), // jr $ra
		isa.Word(0x00000000), // nop
	}
	var pkts [][]byte
	gen := packet.NewGenerator(8)
	for _, payload := range [][]isa.Word{hijack, alt, hijack} {
		pkt, err := smash.CraftPacket(payload)
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, gen.Next(), pkt)
	}
	prog, err := apps.IPv4CM().Program()
	if err != nil {
		t.Fatal(err)
	}
	runs := monitor.RecordRuns(apps.NewCore(prog), pkts)
	for _, width := range []int{1, 2, 4, 8} {
		for _, param := range []uint32{0x2468ACE0, 0x13579BDF, 0xDEADBEEF} {
			t.Run(fmt.Sprintf("W%d/%08x", width, param), func(t *testing.T) {
				newHasher := func() mhash.Hasher {
					h, err := mhash.NewMerkleWith(param, width, nil)
					if err != nil {
						t.Fatal(err)
					}
					return h
				}
				g, err := monitor.Extract(prog, newHasher())
				if err != nil {
					t.Fatal(err)
				}
				if alarms := monitor.CheckExact(t, g, newHasher, runs); alarms != 3 {
					t.Fatalf("%d runs alarmed, want the 3 attack packets", alarms)
				}
			})
		}
	}
}
