package monitor

import (
	"fmt"
	"sort"
)

// PackedGraph is the hardware memory layout of a monitoring graph: the
// compact, fixed-width representation §2.1/§3.2 motivate ("represented very
// compactly and processed with a single memory access").
//
// Nodes are indexed densely in address order. Every node record is one
// fixed-width word:
//
//	[hash: W bits][kind: 2 bits][field0: idxBits][field1: idxBits]
//
// with kind ∈ {direct, branch, indirect, terminal}. Direct nodes use field0
// as the successor index; branch nodes use both fields; indirect nodes
// (register jumps) use both fields as one 2*idxBits offset into a shared
// fan-out table (field0 holds its low bits); terminal nodes use neither.
// The fan-out table is a dense array of idxBits-wide successor indices,
// followed by one idxBits-wide fan-out count per indirect node, in node
// order.
type PackedGraph struct {
	Width   int // hash width W
	IdxBits int // bits per node index
	Entry   int // entry node index

	addrs         []uint32 // node index -> instruction address
	bits          bitstream
	fanout        bitstream
	nodes         int
	fanoutEntries int
}

// Node record kinds.
const (
	pkDirect = iota
	pkBranch
	pkIndirect
	pkTerminal
)

// Pack lays the graph out in the hardware representation.
func Pack(g *Graph) (*PackedGraph, error) {
	n := g.Len()
	if n == 0 {
		return nil, fmt.Errorf("monitor: empty graph")
	}
	idxBits := bitsFor(n)
	p := &PackedGraph{
		Width:   g.Width,
		IdxBits: idxBits,
		addrs:   append([]uint32(nil), g.Addrs()...),
	}
	index := make(map[uint32]int, n)
	for i, a := range p.addrs {
		index[a] = i
	}
	entry, ok := index[g.Entry]
	if !ok {
		return nil, fmt.Errorf("monitor: entry 0x%x not in graph", g.Entry)
	}
	p.Entry = entry

	for _, a := range p.addrs {
		node := g.Node(a)
		p.bits.write(uint64(node.Hash), g.Width)
		switch {
		case len(node.Succ) == 0:
			p.bits.write(pkTerminal, 2)
			p.bits.write(0, idxBits)
			p.bits.write(0, idxBits)
		case len(node.Succ) == 1:
			p.bits.write(pkDirect, 2)
			p.bits.write(uint64(index[node.Succ[0]]), idxBits)
			p.bits.write(0, idxBits)
		case len(node.Succ) == 2:
			p.bits.write(pkBranch, 2)
			p.bits.write(uint64(index[node.Succ[0]]), idxBits)
			p.bits.write(uint64(index[node.Succ[1]]), idxBits)
		default:
			if len(node.Succ) > (1<<idxBits)-1 {
				return nil, fmt.Errorf("monitor: fan-out %d exceeds field width", len(node.Succ))
			}
			p.bits.write(pkIndirect, 2)
			p.bits.write(uint64(p.fanoutEntries), idxBits+idxBits)
			for _, s := range node.Succ {
				p.fanout.write(uint64(index[s]), idxBits)
				p.fanoutEntries++
			}
		}
	}
	// Second pass for indirect counts (kept as a separate dense array so
	// node records stay single-width).
	for _, a := range p.addrs {
		node := g.Node(a)
		if len(node.Succ) > 2 {
			p.fanout.write(uint64(len(node.Succ)), idxBits)
			p.fanoutEntries++
		}
	}
	p.nodes = n
	return p, nil
}

// Nodes returns the node count.
func (p *PackedGraph) Nodes() int { return p.nodes }

// RecordBits returns the fixed per-node record width.
func (p *PackedGraph) RecordBits() int { return p.Width + 2 + 2*p.IdxBits }

// MemoryBits returns the exact monitor-memory footprint: node records plus
// the shared fan-out table.
func (p *PackedGraph) MemoryBits() int {
	return p.nodes*p.RecordBits() + p.fanout.lengthBits
}

// Unpack reconstructs the Graph from the packed form; used by the device's
// self-check and the round-trip tests. Indirect fan-outs are recovered in
// packing order.
func (p *PackedGraph) Unpack() (*Graph, error) {
	g := &Graph{Width: p.Width, Entry: p.addrs[p.Entry], nodes: map[uint32]*Node{}}
	r := p.bits.reader()
	type pendingIndirect struct {
		node   *Node
		offset int
	}
	var pend []pendingIndirect
	for i := 0; i < p.nodes; i++ {
		h := r.read(p.Width)
		kind := r.read(2)
		f0 := r.read(p.IdxBits)
		f1 := r.read(p.IdxBits)
		n := &Node{Addr: p.addrs[i], Hash: uint8(h)}
		switch kind {
		case pkTerminal:
		case pkDirect:
			n.Succ = []uint32{p.addrs[f0]}
		case pkBranch:
			n.Succ = []uint32{p.addrs[f0], p.addrs[f1]}
		case pkIndirect:
			pend = append(pend, pendingIndirect{node: n, offset: int(f1<<p.IdxBits | f0)})
		}
		g.nodes[n.Addr] = n
		g.order = append(g.order, n.Addr)
	}
	// Fan-out table: entries for each indirect node in packing order,
	// followed by the count array in the same order.
	if len(pend) > 0 {
		fr := p.fanout.reader()
		// First read all entry streams: we need counts, which sit at the
		// tail. Read the tail counts first by position arithmetic.
		totalEntries := p.fanoutEntries - len(pend)
		entries := make([]uint64, totalEntries)
		for i := range entries {
			entries[i] = fr.read(p.IdxBits)
		}
		counts := make([]int, len(pend))
		for i := range counts {
			counts[i] = int(fr.read(p.IdxBits))
		}
		off := 0
		for i, pi := range pend {
			if pi.offset != off {
				return nil, fmt.Errorf("monitor: fan-out offset mismatch (%d != %d)", pi.offset, off)
			}
			for j := 0; j < counts[i]; j++ {
				pi.node.Succ = append(pi.node.Succ, p.addrs[entries[off+j]])
			}
			off += counts[i]
		}
	}
	sort.Slice(g.order, func(i, j int) bool { return g.order[i] < g.order[j] })
	return g, nil
}

// --- bitstream ---------------------------------------------------------------

type bitstream struct {
	words      []uint64
	lengthBits int
}

func (b *bitstream) write(v uint64, bits int) {
	for i := 0; i < bits; i++ {
		word := b.lengthBits / 64
		off := uint(b.lengthBits % 64)
		if word >= len(b.words) {
			b.words = append(b.words, 0)
		}
		if v&(1<<uint(i)) != 0 {
			b.words[word] |= 1 << off
		}
		b.lengthBits++
	}
}

type bitreader struct {
	b   *bitstream
	pos int
}

func (b *bitstream) reader() *bitreader { return &bitreader{b: b} }

func (r *bitreader) read(bits int) uint64 {
	var v uint64
	for got := 0; got < bits; {
		word, off := r.pos/64, uint(r.pos%64)
		n := min(bits-got, 64-int(off))
		if word < len(r.b.words) {
			v |= (r.b.words[word] >> off) & (1<<uint(n) - 1) << uint(got)
		}
		got += n
		r.pos += n
	}
	return v
}
