package monitor

import (
	"testing"

	"sdmmon/internal/asm"
	"sdmmon/internal/isa"
	"sdmmon/internal/mhash"
)

func FuzzDeserializeGraph(f *testing.F) {
	p := asm.MustAssemble(loopSrc)
	h := mhash.NewMerkle(0x1234)
	g, err := Extract(p, h)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(g.Serialize())
	f.Add([]byte("SDMG"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g2, err := Deserialize(data)
		if err != nil {
			return
		}
		// Anything accepted must serialize, pack and drive a monitor
		// without panicking.
		_ = g2.Serialize()
		if g2.Width == 4 {
			if m, err := New(g2, mhash.NewMerkle(1)); err == nil {
				m.Observe(0, 0)
			}
		}
		if pk, err := Pack(g2); err == nil {
			_, _ = pk.Unpack()
			_ = pk.MemoryBits()
		}
	})
}

// fuzzGraph decodes a graph of up to 96 nodes at the given width from
// spec: per node, a hash byte, a successor count (0-4) and that many
// successor bytes, each taken modulo the node count. Node 0 is the entry;
// missing bytes read as zero.
func fuzzGraph(width int, spec []byte) *Graph {
	next := func() int {
		if len(spec) == 0 {
			return 0
		}
		b := spec[0]
		spec = spec[1:]
		return int(b)
	}
	n := 1 + next()%96
	g := &Graph{Width: width, nodes: map[uint32]*Node{}}
	for i := 0; i < n; i++ {
		node := &Node{Addr: uint32(4 * i), Hash: uint8(next()) & uint8(1<<width-1)}
		for range next() % 5 {
			node.Succ = append(node.Succ, uint32(4*(next()%n)))
		}
		node.Succ = dedupSorted(node.Succ)
		g.nodes[node.Addr] = node
		g.order = append(g.order, node.Addr)
	}
	return g
}

// FuzzPackedMonitorEquivalence holds the compiled step, the bitmap step
// and the map-based Monitor to the same observables over fuzzed graphs and
// word streams (each stream byte is one instruction word, hashed to its
// low W bits).
func FuzzPackedMonitorEquivalence(f *testing.F) {
	f.Add(uint8(2), []byte{3, 0, 2, 1, 2, 1, 1, 2, 2, 0}, []byte{0, 1, 2, 1, 2, 3, 0})
	f.Add(uint8(1), []byte{4, 0, 1, 1, 1, 3, 0, 1, 2, 0, 0}, []byte{0, 1, 1, 0, 0, 0, 1})
	f.Add(uint8(3), []byte{95, 7, 4, 1, 2, 3, 4, 200, 3, 9, 10, 11}, []byte{7, 200, 0, 0, 255})
	f.Fuzz(func(t *testing.T, w uint8, spec, stream []byte) {
		width := []int{1, 2, 4, 8}[w%4]
		g := fuzzGraph(width, spec)
		if _, err := Pack(g); err != nil {
			return // a fan-out wider than the index field
		}
		x := newExactTrio(t, g, func() mhash.Hasher { return lowBits(width) }, true)
		for i, b := range stream {
			if b == 0xFF {
				x.reset()
				continue
			}
			x.observe(t, uint32(4*i), isa.Word(b))
		}
	})
}
