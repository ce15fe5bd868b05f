package monitor

import (
	"fmt"
	"math/bits"

	"sdmmon/internal/isa"
	"sdmmon/internal/mhash"
)

// PackedMonitor is the runtime monitor operating directly on the packed
// hardware layout. At install time (NewPacked) the node records are
// compiled into dense flat arrays, so the per-instruction step is nothing
// but array reads and bitmask operations — no maps, no branching on node
// kinds, and no heap allocations:
//
//   - match[h] is a bitmap of the nodes whose stored hash is h: ANDing it
//     with the current position bitmap yields the surviving candidates in
//     one word-parallel operation (the hardware's parallel comparators);
//   - succ holds one successor bitmap row per node (direct, branch and
//     indirect fan-outs all compile to the same representation), so
//     advancing is OR-ing the rows of the surviving candidates.
//
// It is semantically identical to Monitor (proved by the equivalence
// tests), and the NP uses it on the per-instruction path. When the hash
// unit is a *mhash.FastHasher the monitor calls it through a concrete
// pointer, keeping interface dispatch out of the inner loop.
type PackedMonitor struct {
	p      *PackedGraph
	hasher mhash.Hasher
	fast   *mhash.FastHasher // non-nil when hasher is a FastHasher

	stride int        // words per bitmap
	match  [][]uint64 // hash value -> bitmap of nodes with that hash
	succ   []uint64   // node index -> successor bitmap row (stride words)

	cur, next []uint64 // position bitmaps, one bit per node

	alarmed bool
	alarmPC uint32

	Checked      uint64
	Alarms       uint64
	MaxPositions int
}

// NewPacked builds a packed monitor from the hardware layout, compiling the
// record stream into the flat transition arrays described above.
func NewPacked(p *PackedGraph, h mhash.Hasher) (*PackedMonitor, error) {
	if p.Width != h.Width() {
		return nil, fmt.Errorf("monitor: packed width %d != hash unit width %d", p.Width, h.Width())
	}
	n := p.Nodes()
	stride := (n + 63) / 64
	m := &PackedMonitor{
		p: p, hasher: h,
		stride: stride,
		match:  make([][]uint64, 1<<p.Width),
		succ:   make([]uint64, n*stride),
		cur:    make([]uint64, stride),
		next:   make([]uint64, stride),
	}
	if fh, ok := h.(*mhash.FastHasher); ok {
		m.fast = fh
	}
	for i := range m.match {
		m.match[i] = make([]uint64, stride)
	}

	// Decode the node records once (hardware reads them per access; the
	// software model trades memory for speed) and compile them.
	r := p.bits.reader()
	type ind struct{ node, offset int }
	var inds []ind
	kind := make([]uint8, n)
	f0 := make([]uint64, n)
	f1 := make([]uint64, n)
	for i := 0; i < n; i++ {
		h := r.read(p.Width)
		kind[i] = uint8(r.read(2))
		f0[i] = r.read(p.IdxBits)
		f1[i] = r.read(p.IdxBits)
		setBit(m.match[h], i)
		if kind[i] == pkIndirect {
			inds = append(inds, ind{node: i, offset: int(f0[i]<<p.IdxBits | f1[i])})
		}
	}
	for i := 0; i < n; i++ {
		row := m.succ[i*stride : (i+1)*stride]
		switch kind[i] {
		case pkDirect:
			setBit(row, int(f0[i]))
		case pkBranch:
			setBit(row, int(f0[i]))
			setBit(row, int(f1[i]))
		case pkTerminal:
			// Matches, contributes no successors: the row stays zero.
		}
	}
	if len(inds) > 0 {
		fr := p.fanout.reader()
		total := p.fanoutEntries - len(inds)
		fan := make([]int32, total)
		for i := range fan {
			fan[i] = int32(fr.read(p.IdxBits))
		}
		counts := make([]int32, len(inds))
		for i := range counts {
			counts[i] = int32(fr.read(p.IdxBits))
		}
		off := int32(0)
		for i, x := range inds {
			if int32(x.offset) != off {
				return nil, fmt.Errorf("monitor: packed fan-out offset mismatch")
			}
			row := m.succ[x.node*stride : (x.node+1)*stride]
			for j := off; j < off+counts[i]; j++ {
				setBit(row, int(fan[j]))
			}
			off += counts[i]
		}
	}
	m.Reset()
	return m, nil
}

// Reset re-arms the monitor at the entry node.
func (m *PackedMonitor) Reset() {
	for i := range m.cur {
		m.cur[i] = 0
	}
	setBit(m.cur, m.p.Entry)
	m.alarmed = false
	if m.MaxPositions == 0 {
		m.MaxPositions = 1
	}
}

func setBit(bm []uint64, i int) { bm[i/64] |= 1 << uint(i%64) }

// Alarmed reports whether the alarm line is asserted.
func (m *PackedMonitor) Alarmed() bool { return m.alarmed }

// AlarmPC returns the diagnostic pc captured at alarm time.
func (m *PackedMonitor) AlarmPC() uint32 { return m.alarmPC }

// Counters returns the monitor's lifetime statistics.
func (m *PackedMonitor) Counters() (checked, alarms uint64, maxPositions int) {
	return m.Checked, m.Alarms, m.MaxPositions
}

// Observe consumes one retired instruction (cpu.TraceFunc signature). The
// steady-state path performs zero heap allocations.
func (m *PackedMonitor) Observe(pc uint32, w isa.Word) bool {
	if m.alarmed {
		return false
	}
	m.Checked++
	var h uint8
	if m.fast != nil {
		h = m.fast.Hash(uint32(w))
	} else {
		h = m.hasher.Hash(uint32(w))
	}

	hb := m.match[h]
	next := m.next
	for i := range next {
		next[i] = 0
	}
	matched := false
	stride := m.stride
	for wi, cw := range m.cur {
		// Word-parallel comparison: candidates whose stored hash equals
		// the reported hash.
		bw := cw & hb[wi]
		if bw == 0 {
			continue
		}
		matched = true
		base := wi * 64
		for bw != 0 {
			idx := base + bits.TrailingZeros64(bw)
			bw &= bw - 1
			row := m.succ[idx*stride : (idx+1)*stride]
			for k, v := range row {
				next[k] |= v
			}
		}
	}
	if !matched {
		m.alarmed = true
		m.alarmPC = pc
		m.Alarms++
		return false
	}
	m.cur, m.next = next, m.cur
	positions := 0
	for _, bw := range m.cur {
		positions += bits.OnesCount64(bw)
	}
	if positions > m.MaxPositions {
		m.MaxPositions = positions
	}
	return true
}

// Positions returns the current candidate count.
func (m *PackedMonitor) Positions() int {
	n := 0
	for _, bw := range m.cur {
		n += bits.OnesCount64(bw)
	}
	return n
}
