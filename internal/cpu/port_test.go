package cpu

import (
	"testing"

	"sdmmon/internal/asm"
	"sdmmon/internal/isa"
	"sdmmon/internal/mhash"
)

// recPort is a monitor port that records every step and rejects the steps
// at the pcs in reject.
type recPort struct {
	pcs    []uint32
	hashes []uint8
	reject map[uint32]bool
}

func (p *recPort) Step(pc uint32, h uint8) bool {
	p.pcs = append(p.pcs, pc)
	p.hashes = append(p.hashes, h)
	return !p.reject[pc]
}

// portCPU loads src into a fresh machine and attaches p through a Merkle
// hash unit under param.
func portCPU(t *testing.T, src string, p Port, param uint32) (*CPU, mhash.Hasher) {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	mem := NewMemory(4096)
	prog.LoadInto(mem)
	c := New(mem, prog.Entry)
	h := mhash.NewMerkle(param)
	c.Attach(p, h, nil)
	return c, h
}

// TestPortWordOverwrittenAtSamePC: the word cache is keyed by the word, so
// a word overwritten at a pc the core already ran hands the port the new
// word's hash and executes the new word — a PC-keyed cache would replay the
// old word's hash.
func TestPortWordOverwrittenAtSamePC(t *testing.T) {
	const oldWord, newWord = 0x24020001, 0x24020007 // li $v0, 1 / li $v0, 7
	p := &recPort{}
	c, h := portCPU(t, `
		.text 0x0
	main:
		li $v0, 1
		break
	`, p, 0x2468ACE0)
	if h.Hash(oldWord) == h.Hash(newWord) {
		t.Fatal("test words collide under the parameter; pick others")
	}
	if _, exc := c.Run(100); exc != nil {
		t.Fatal(exc)
	}
	c.Mem.Store32(0, newWord)
	c.Reset(0)
	p.pcs, p.hashes = nil, nil
	if _, exc := c.Run(100); exc != nil {
		t.Fatal(exc)
	}
	if p.pcs[0] != 0 || p.hashes[0] != h.Hash(newWord) {
		t.Fatalf("port saw pc %#x hash %#x at the overwritten word, want pc 0 hash %#x",
			p.pcs[0], p.hashes[0], h.Hash(newWord))
	}
	if c.Regs[isa.RegV0] != 7 {
		t.Fatalf("v0 = %d after the overwrite, want 7", c.Regs[isa.RegV0])
	}
}

// TestPortSeesInvalidWordBeforeTrap: an invalid word reaches the port
// before the core raises ExcReservedInstr, and a port that rejects it
// turns the trap into a monitor alarm.
func TestPortSeesInvalidWordBeforeTrap(t *testing.T) {
	const src = `
		.text 0x0
	main:
		nop
		.word 0xFC000000
		break
	`
	if isa.Valid(isa.Word(0xFC000000)) {
		t.Fatal("test word decodes; pick a reserved one")
	}
	p := &recPort{}
	c, h := portCPU(t, src, p, 0x1357)
	_, exc := c.Run(100)
	if exc == nil || exc.Kind != ExcReservedInstr || exc.PC != 4 {
		t.Fatalf("exception = %v, want reserved instruction at 0x4", exc)
	}
	if len(p.pcs) != 2 || p.pcs[1] != 4 || p.hashes[1] != h.Hash(0xFC000000) {
		t.Fatalf("port saw pcs %#x hashes %#x, want the invalid word at 0x4 last", p.pcs, p.hashes)
	}

	p = &recPort{reject: map[uint32]bool{4: true}}
	c, _ = portCPU(t, src, p, 0x1357)
	if _, exc = c.Run(100); exc == nil || exc.Kind != ExcMonitorAlarm || exc.PC != 4 {
		t.Fatalf("exception = %v, want monitor alarm at 0x4", exc)
	}
}

// TestPortRingMarksRejected: the forensic ring attached with the port
// records every retired instruction and flags the rejected one.
func TestPortRingMarksRejected(t *testing.T) {
	p := &recPort{reject: map[uint32]bool{8: true}}
	prog := asm.MustAssemble(`
		.text 0x0
	main:
		nop
		nop
		nop
		break
	`)
	mem := NewMemory(4096)
	prog.LoadInto(mem)
	c := New(mem, 0)
	tr := NewTracer(8, nil)
	c.Attach(p, mhash.NewMerkle(1), tr)
	if _, exc := c.Run(100); exc == nil || exc.Kind != ExcMonitorAlarm {
		t.Fatalf("exception = %v, want monitor alarm", exc)
	}
	last := tr.Last(8)
	if len(last) != 3 {
		t.Fatalf("ring holds %d entries, want 3", len(last))
	}
	for i, e := range last {
		if e.PC != uint32(4*i) || e.Rejected != (e.PC == 8) {
			t.Fatalf("entry %d: %+v", i, e)
		}
	}
}
