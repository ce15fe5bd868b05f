package monitor

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"sdmmon/internal/isa"
	"sdmmon/internal/mhash"
)

// PackedMonitor is the runtime monitor operating directly on the packed
// hardware layout. At install time (NewPacked) the node records are
// decoded into one successor bitmap row per node (direct, branch and
// indirect fan-outs all compile to the same representation) and then
// compiled, by subset construction, into an exact transition table:
//
//   - one state per frontier (set of graph positions) reachable from the
//     entry, and one row of 2^Width entries per state, so a step is one
//     hash, one table load and one compare — the single memory access per
//     instruction §3.2 describes;
//   - an entry holds the next state's row offset and its frontier's
//     popcount, so MaxPositions stays exact without a second load;
//   - state 0 is the alarm state, and its entry is 0: no position of the
//     frontier matches the reported hash. It differs from the
//     empty-frontier state, which a matched terminal node leads to and
//     from which only the *next* instruction alarms.
//
// A graph whose table would exceed tableCap entries keeps the bitmap step
// instead: match[h] is a bitmap of the nodes whose stored hash is h (the
// hardware's parallel comparators), ANDed with the position bitmap, and
// the surviving candidates' successor rows are ORed together.
//
// Both steps are semantically identical to Monitor (proved by the
// equivalence tests and FuzzPackedMonitorEquivalence), observe every
// retired instruction and never allocate; the NP uses this monitor on the
// per-instruction path. It is exact, unlike the single-position DFAMonitor
// ablation. When the hash unit is a *mhash.FastHasher the monitor calls it
// through a concrete pointer, keeping interface dispatch out of the inner
// loop.
type PackedMonitor struct {
	p      *PackedGraph
	hasher mhash.Hasher
	fast   *mhash.FastHasher // non-nil when hasher is a FastHasher
	stride int               // words per node bitmap

	// The compiled table; nil when the graph fell back to the bitmap step.
	table []uint32 // row + hash -> next entry (popcount<<16 | row offset)
	pop   []int    // state -> frontier popcount
	width uint     // hash width W: state s's row starts at s<<width
	row   int      // current state's row offset

	// The bitmap step's arrays; nil when the table is in use.
	match [][]uint64 // hash value -> bitmap of nodes with that hash
	succ  []uint64   // node index -> successor bitmap row (stride words)

	cur, next []uint64 // position bitmaps, one bit per node

	alarmed bool
	alarmPC uint32

	Checked      uint64
	Alarms       uint64
	MaxPositions int
}

// Bounds on the compile, so that a pathological graph cannot blow up
// install time or memory. A state takes 2^Width table entries and one
// frontier bitmap; tableCap bounds the states times the larger of the two
// (states << Width for graphs up to 64 nodes), which also keeps every row
// offset within an entry's low 16 bits. Building a state ORs up to one
// successor row per frontier node, so maxCompiledNodes bounds that work,
// and every popcount fits an entry's high 16 bits.
const (
	tableCap         = 1 << 16
	maxCompiledNodes = 1 << 10
)

// The compiled table's fixed states.
const (
	alarmState = 0 // no frontier position matched; its entry is 0
	entryState = 1 // the frontier holding just the entry node
)

// NewPacked builds a packed monitor from the hardware layout, compiling the
// record stream into the transition table described above.
func NewPacked(p *PackedGraph, h mhash.Hasher) (*PackedMonitor, error) {
	return newPacked(p, h, tableCap)
}

// newPacked is NewPacked with maxEntries in place of tableCap; 0 forces
// the bitmap step.
func newPacked(p *PackedGraph, h mhash.Hasher, maxEntries int) (*PackedMonitor, error) {
	if p.Width != h.Width() {
		return nil, fmt.Errorf("monitor: packed width %d != hash unit width %d", p.Width, h.Width())
	}
	n := p.Nodes()
	stride := (n + 63) / 64
	m := &PackedMonitor{p: p, hasher: h, width: uint(p.Width), stride: stride}
	if fh, ok := h.(*mhash.FastHasher); ok {
		m.fast = fh
	}

	// Decode the node records once (hardware reads them per access; the
	// software model trades memory for speed) into successor rows.
	succ := make([]uint64, n*stride)
	r := p.bits.reader()
	type ind struct{ node, offset int }
	var inds []ind
	hashOf := make([]uint8, n)
	for i := 0; i < n; i++ {
		hashOf[i] = uint8(r.read(p.Width))
		kind := r.read(2)
		f0 := r.read(p.IdxBits)
		f1 := r.read(p.IdxBits)
		row := succ[i*stride : (i+1)*stride]
		switch kind {
		case pkDirect:
			setBit(row, int(f0))
		case pkBranch:
			setBit(row, int(f0))
			setBit(row, int(f1))
		case pkIndirect:
			inds = append(inds, ind{node: i, offset: int(f1<<p.IdxBits | f0)})
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
			row := succ[x.node*stride : (x.node+1)*stride]
			for j := off; j < off+counts[i]; j++ {
				setBit(row, int(fan[j]))
			}
			off += counts[i]
		}
	}

	if !m.compile(hashOf, succ, maxEntries) {
		m.succ = succ
		m.match = make([][]uint64, 1<<p.Width)
		for i := range m.match {
			m.match[i] = make([]uint64, stride)
		}
		for i, h := range hashOf {
			setBit(m.match[h], i)
		}
		m.cur = make([]uint64, stride)
		m.next = make([]uint64, stride)
	}
	m.Reset()
	return m, nil
}

// compile runs subset construction from the entry frontier over the
// successor rows and installs the table. Only the hashes of a frontier's
// own nodes lead anywhere but the alarm state, so a state costs one pass
// over its nodes, ORing each node's successors into its hash's union. It
// reports false, installing nothing, past the bounds above.
func (m *PackedMonitor) compile(hashOf []uint8, succ []uint64, maxEntries int) bool {
	stride, width := m.stride, m.width
	perState := max(1<<width, stride)
	if len(hashOf) > maxCompiledNodes || 2*perState > maxEntries {
		return false
	}
	// Most graphs compile to about one state per node.
	states := min(len(hashOf)+3, maxEntries/perState)
	// frontiers holds state s's bitmap at [s*stride, (s+1)*stride); the
	// alarm state's all-zero placeholder is never indexed, so it cannot
	// alias the empty frontier.
	frontiers := make([]uint64, 2*stride, states*stride)
	setBit(frontiers[entryState*stride:], m.p.Entry)
	table := make([]uint32, 2<<width, states<<width)
	pop := []int{0, 1}
	// A frontier's state is found by its one node when it has one, as
	// most do, and by its bitmap's bytes otherwise; 0 (the alarm state,
	// which no frontier is) means not yet a state.
	single := make([]int, len(hashOf))
	single[m.p.Entry] = entryState
	var multi map[string]int
	key := make([]byte, 8*stride)
	// The current state's successor union per hash, the hashes its nodes
	// carry, and mark[h] == s once hash h's union is started.
	union := make([]uint64, stride<<width)
	var hashes []int
	mark := make([]int, 1<<width)
	for s := entryState; s < len(pop); s++ {
		hashes = hashes[:0]
		for wi, w := range frontiers[s*stride : (s+1)*stride] {
			for ; w != 0; w &= w - 1 {
				i := wi*64 + bits.TrailingZeros64(w)
				h := int(hashOf[i])
				u := union[h*stride : (h+1)*stride]
				if mark[h] != s {
					mark[h] = s
					hashes = append(hashes, h)
					clear(u)
				}
				for k, v := range succ[i*stride : (i+1)*stride] {
					u[k] |= v
				}
			}
		}
		for _, h := range hashes {
			next := union[h*stride : (h+1)*stride]
			c, only := 0, 0
			for k, w := range next {
				if w != 0 {
					c += bits.OnesCount64(w)
					only = k*64 + bits.TrailingZeros64(w)
				}
			}
			var t int
			if c == 1 {
				t = single[only]
			} else {
				for k, w := range next {
					binary.LittleEndian.PutUint64(key[8*k:], w)
				}
				t = multi[string(key)]
			}
			if t == alarmState {
				if (len(pop)+1)*perState > maxEntries {
					return false
				}
				t = len(pop)
				if c == 1 {
					single[only] = t
				} else {
					if multi == nil {
						multi = make(map[string]int)
					}
					multi[string(key)] = t
				}
				frontiers = append(frontiers, next...)
				pop = append(pop, c)
				table = append(table, make([]uint32, 1<<width)...)
			}
			table[s<<width|h] = uint32(pop[t])<<16 | uint32(t<<width)
		}
	}
	m.table, m.pop = table, pop
	return true
}

// Reset re-arms the monitor at the entry node.
func (m *PackedMonitor) Reset() {
	if m.table != nil {
		m.row = entryState << m.width
	} else {
		clear(m.cur)
		setBit(m.cur, m.p.Entry)
	}
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
	if m.table == nil {
		return m.step(pc, h)
	}
	e := m.table[m.row|int(h)]
	if e == alarmState {
		m.alarm(pc)
		return false
	}
	m.row = int(e & 0xFFFF)
	if p := int(e >> 16); p > m.MaxPositions {
		m.MaxPositions = p
	}
	return true
}

// step is the bitmap step over the position bitmaps.
func (m *PackedMonitor) step(pc uint32, h uint8) bool {
	hb := m.match[h]
	next := m.next
	clear(next)
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
		m.alarm(pc)
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

// alarm asserts the alarm line; the frontier stays as it was, as
// Monitor's does.
func (m *PackedMonitor) alarm(pc uint32) {
	m.alarmed = true
	m.alarmPC = pc
	m.Alarms++
}

// Positions returns the current candidate count.
func (m *PackedMonitor) Positions() int {
	if m.table != nil {
		return m.pop[m.row>>m.width]
	}
	n := 0
	for _, bw := range m.cur {
		n += bits.OnesCount64(bw)
	}
	return n
}
