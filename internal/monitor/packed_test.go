package monitor

import (
	"math/rand"
	"testing"

	"sdmmon/internal/apps"
	"sdmmon/internal/cpu"
	"sdmmon/internal/isa"
	"sdmmon/internal/mhash"
)

func graphsForPacking(t *testing.T) []*Graph {
	t.Helper()
	var out []*Graph
	// The synthetic loop program plus every built-in application, under a
	// couple of parameters each — covers direct, branch, indirect and
	// terminal node kinds.
	rng := rand.New(rand.NewSource(42))
	_, g, _ := buildGraph(t, loopSrc, rng.Uint32())
	out = append(out, g)
	for _, app := range apps.All() {
		prog, err := app.Program()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			h := mhash.NewMerkle(rng.Uint32())
			g, err := Extract(prog, h)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, g)
		}
	}
	return out
}

func TestPackUnpackRoundTrip(t *testing.T) {
	for gi, g := range graphsForPacking(t) {
		p, err := Pack(g)
		if err != nil {
			t.Fatalf("graph %d: Pack: %v", gi, err)
		}
		back, err := p.Unpack()
		if err != nil {
			t.Fatalf("graph %d: Unpack: %v", gi, err)
		}
		if back.Width != g.Width || back.Entry != g.Entry || back.Len() != g.Len() {
			t.Fatalf("graph %d: header mismatch", gi)
		}
		for _, a := range g.Addrs() {
			want, got := g.Node(a), back.Node(a)
			if got == nil {
				t.Fatalf("graph %d: node 0x%x missing", gi, a)
			}
			if got.Hash != want.Hash {
				t.Fatalf("graph %d: hash mismatch at 0x%x", gi, a)
			}
			if len(got.Succ) != len(want.Succ) {
				t.Fatalf("graph %d: succ count mismatch at 0x%x: %v vs %v",
					gi, a, got.Succ, want.Succ)
			}
			for j := range want.Succ {
				if got.Succ[j] != want.Succ[j] {
					t.Fatalf("graph %d: succ mismatch at 0x%x", gi, a)
				}
			}
		}
	}
}

func TestUnpackedGraphDrivesMonitor(t *testing.T) {
	// A monitor driven by the unpacked graph behaves identically on a real
	// execution.
	p, g, h := buildGraph(t, loopSrc, 0x5A5A5A5A)
	packed, err := Pack(g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := packed.Unpack()
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(back, h)
	if err != nil {
		t.Fatal(err)
	}
	if exc := runMonitored(t, p, m, 64*1024, nil); exc != nil {
		t.Fatalf("unpacked-graph monitor alarmed on valid run: %v", exc)
	}
}

func TestPackedSizes(t *testing.T) {
	_, g, _ := buildGraph(t, loopSrc, 1)
	p, err := Pack(g)
	if err != nil {
		t.Fatal(err)
	}
	if p.Nodes() != g.Len() {
		t.Errorf("nodes %d != %d", p.Nodes(), g.Len())
	}
	// Record width: W + 2 + 2*idxBits.
	wantRec := g.Width + 2 + 2*bitsFor(g.Len())
	if p.RecordBits() != wantRec {
		t.Errorf("record bits %d, want %d", p.RecordBits(), wantRec)
	}
	if p.MemoryBits() < p.Nodes()*p.RecordBits() {
		t.Error("memory bits below record storage")
	}
	if g.MemoryBits() != p.MemoryBits() {
		t.Errorf("Graph.MemoryBits %d != packed %d", g.MemoryBits(), p.MemoryBits())
	}
	// Compactness (§2.1): a fraction of the 32-bit binary.
	if p.MemoryBits() >= 32*g.Len() {
		t.Errorf("packed graph %d bits not smaller than binary %d bits",
			p.MemoryBits(), 32*g.Len())
	}
}

// multiCallSrc has three call sites of two functions, so each jr $ra
// carries three successors — exercising the packed layout's indirect
// fan-out table at a zero and a nonzero offset.
const multiCallSrc = `
	.text 0x0
main:
	jal leaf
	jal leaf
	jal leaf2
	break
leaf:
	addu $v0, $zero, $zero
	jr $ra
leaf2:
	addiu $v0, $zero, 1
	jr $ra
`

func TestPackedIndirectFanout(t *testing.T) {
	p, g, h := buildGraph(t, multiCallSrc, 0x1D1)
	// Confirm the premise: two nodes have more than two successors, so
	// the second one's fan-out offset is not zero.
	wide := 0
	for _, a := range g.Addrs() {
		if len(g.Node(a).Succ) > 2 {
			wide++
		}
	}
	if wide < 2 {
		t.Fatalf("test premise broken: %d indirect fan-outs in the graph, want 2", wide)
	}
	pk, err := Pack(g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := pk.Unpack()
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(p, h); err != nil {
		t.Fatalf("unpacked indirect graph invalid: %v", err)
	}
	// Both monitor implementations accept a real run over the indirect
	// graph.
	m, err := New(back, h)
	if err != nil {
		t.Fatal(err)
	}
	if exc := runMonitored(t, p, m, 64*1024, nil); exc != nil {
		t.Fatalf("map monitor alarmed: %v", exc)
	}
	pm, err := NewPacked(pk, h)
	if err != nil {
		t.Fatal(err)
	}
	mem := cpu.NewMemory(64 * 1024)
	p.LoadInto(mem)
	c := cpu.New(mem, p.Entry)
	c.Regs[isa.RegSP] = uint32(mem.Size())
	c.Trace = pm.Observe
	if _, exc := c.Run(100000); exc != nil {
		t.Fatalf("packed monitor alarmed on indirect graph: %v", exc)
	}
}

func TestPackEmptyGraph(t *testing.T) {
	if _, err := Pack(&Graph{Width: 4, nodes: map[uint32]*Node{}}); err == nil {
		t.Error("empty graph packed")
	}
}

func TestBitstream(t *testing.T) {
	var b bitstream
	vals := []struct {
		v    uint64
		bits int
	}{
		{0x5, 3}, {0x1FF, 9}, {0, 1}, {1, 1}, {0xDEADBEEF, 32}, {0x3FFFFFFFF, 34},
	}
	for _, x := range vals {
		b.write(x.v, x.bits)
	}
	r := b.reader()
	for i, x := range vals {
		if got := r.read(x.bits); got != x.v {
			t.Fatalf("value %d: got %#x, want %#x", i, got, x.v)
		}
	}
	total := 0
	for _, x := range vals {
		total += x.bits
	}
	if b.lengthBits != total {
		t.Errorf("length %d, want %d", b.lengthBits, total)
	}
}
