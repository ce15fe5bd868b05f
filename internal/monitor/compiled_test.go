package monitor

import (
	"fmt"
	"math/rand"
	"testing"

	"sdmmon/internal/apps"
	"sdmmon/internal/isa"
	"sdmmon/internal/mhash"
	"sdmmon/internal/packet"
)

// Exactness of the compiled transition table: the compiled step, the
// bitmap step (the same monitor with the table capped at zero) and the
// map-based Monitor must agree on every observable after every step.

// Run is one packet's retired instructions, in retirement order.
type Run struct {
	PCs   []uint32
	Words []isa.Word
}

// RecordRuns processes pkts on c with no monitor attached and returns each
// packet's retired instructions. Hostile packets run on past the point a
// monitor would alarm, so their runs carry the attacker's words too.
func RecordRuns(c *apps.Core, pkts [][]byte) []Run {
	runs := make([]Run, len(pkts))
	var r *Run
	c.Trace = func(pc uint32, w isa.Word) bool {
		r.PCs = append(r.PCs, pc)
		r.Words = append(r.Words, w)
		return true
	}
	for i, pkt := range pkts {
		r = &runs[i]
		if res := c.Process(pkt, i%64); res.Exc != nil {
			c.Recover()
		}
	}
	c.Trace = nil
	return runs
}

// exactTrio is one graph under the three monitors.
type exactTrio struct {
	compiled, bitmap *PackedMonitor
	ref              *Monitor
}

// newExactTrio builds the three monitors over g, each with its own hash
// unit from newHasher; the packed ones are fed through a FastHasher as the
// NP feeds them. With wantTable, the compiled monitor must have compiled.
func newExactTrio(tb testing.TB, g *Graph, newHasher func() mhash.Hasher, wantTable bool) *exactTrio {
	tb.Helper()
	p, err := Pack(g)
	if err != nil {
		tb.Fatal(err)
	}
	compiled, err := NewPacked(p, mhash.NewFastDefault(newHasher()))
	if err != nil {
		tb.Fatal(err)
	}
	bitmap, err := newPacked(p, mhash.NewFastDefault(newHasher()), 0)
	if err != nil {
		tb.Fatal(err)
	}
	ref, err := New(g, newHasher())
	if err != nil {
		tb.Fatal(err)
	}
	if got := compiled.table != nil; got != wantTable {
		tb.Fatalf("compiled table present=%v, want %v (%d nodes, W=%d)", got, wantTable, g.Len(), g.Width)
	}
	if bitmap.table != nil {
		tb.Fatal("a zero cap still compiled a table")
	}
	return &exactTrio{compiled: compiled, bitmap: bitmap, ref: ref}
}

func (x *exactTrio) reset() {
	x.compiled.Reset()
	x.bitmap.Reset()
	x.ref.Reset()
}

// observe feeds one instruction to all three and fails tb unless they
// agree on the verdict, the alarm line, the alarm pc, the positions and
// every counter.
func (x *exactTrio) observe(tb testing.TB, pc uint32, w isa.Word) bool {
	tb.Helper()
	want := x.ref.Observe(pc, w)
	rc, ra, rp := x.ref.Counters()
	for _, m := range []struct {
		name string
		mon  *PackedMonitor
	}{{"compiled", x.compiled}, {"bitmap", x.bitmap}} {
		got := m.mon.Observe(pc, w)
		c, a, p := m.mon.Counters()
		if got != want || m.mon.Alarmed() != x.ref.Alarmed() || m.mon.AlarmPC() != x.ref.AlarmPC() ||
			m.mon.Positions() != x.ref.Positions() || c != rc || a != ra || p != rp {
			tb.Fatalf("%s at pc %#x word %#08x: observe=%v alarmed=%v alarmPC=%#x positions=%d counters=(%d,%d,%d); "+
				"ref observe=%v alarmed=%v alarmPC=%#x positions=%d counters=(%d,%d,%d)",
				m.name, pc, uint32(w), got, m.mon.Alarmed(), m.mon.AlarmPC(), m.mon.Positions(), c, a, p,
				want, x.ref.Alarmed(), x.ref.AlarmPC(), x.ref.Positions(), rc, ra, rp)
		}
	}
	return want
}

// run resets the three monitors and feeds them one packet's instructions,
// stopping where the alarm would reset the core.
func (x *exactTrio) run(tb testing.TB, r Run) {
	tb.Helper()
	x.reset()
	for i, w := range r.Words {
		if !x.observe(tb, r.PCs[i], w) {
			return
		}
	}
}

// CheckExact drives the compiled step, the bitmap step and the map-based
// Monitor over g with the recorded runs, resetting before each, and fails
// t at the first disagreement. The compiled monitor must have compiled.
// It returns the number of runs that alarmed.
func CheckExact(t *testing.T, g *Graph, newHasher func() mhash.Hasher, runs []Run) uint64 {
	t.Helper()
	x := newExactTrio(t, g, newHasher, true)
	for _, r := range runs {
		x.run(t, r)
	}
	return x.ref.Alarms
}

// merkle returns a hash-unit factory for one width and parameter.
func merkle(t testing.TB, param uint32, width int) func() mhash.Hasher {
	if _, err := mhash.NewMerkleWith(param, width, nil); err != nil {
		t.Fatal(err)
	}
	return func() mhash.Hasher {
		h, _ := mhash.NewMerkleWith(param, width, nil)
		return h
	}
}

// TestCompiledExactOnApps covers every built-in application at every hash
// width and several parameters, on recorded benign traffic (the acl table
// holds rules, so its rule walk runs) and on random word streams that mix
// the program's own words with garbage and keep observing after alarms.
func TestCompiledExactOnApps(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, app := range apps.All() {
		prog, err := app.Program()
		if err != nil {
			t.Fatal(err)
		}
		c := apps.NewCore(prog)
		var rules []apps.ACLRule
		for i := 0; i < 12; i++ {
			rules = append(rules, apps.ACLRule{Prefix: rng.Uint32() & 0xFFFF0000, Mask: 0xFFFF0000, Forward: i%2 == 0})
		}
		apps.InstallACLRules(c, rules)
		gen := packet.NewGenerator(rng.Int63())
		gen.OptionWords = 2
		pkts := make([][]byte, 40)
		for i := range pkts {
			pkts[i] = gen.Next()
		}
		runs := RecordRuns(c, pkts)
		code := prog.CodeWords()
		for _, width := range []int{1, 2, 4, 8} {
			for trial := 0; trial < 3; trial++ {
				param := rng.Uint32()
				t.Run(fmt.Sprintf("%s/W%d/%08x", app.Name, width, param), func(t *testing.T) {
					newHasher := merkle(t, param, width)
					g, err := Extract(prog, newHasher())
					if err != nil {
						t.Fatal(err)
					}
					CheckExact(t, g, newHasher, runs)
					x := newExactTrio(t, g, newHasher, true)
					for i := 0; i < 3000; i++ {
						w := isa.Word(rng.Uint32())
						if rng.Intn(4) > 0 {
							w = code[rng.Intn(len(code))].W
						}
						if !x.observe(t, uint32(4*i), w) && rng.Intn(2) == 0 {
							x.reset()
						}
					}
				})
			}
		}
	}
}

// lowBits is a hash unit that reports an instruction word's low W bits, so
// tests choose each step's hash directly.
type lowBits int

func (l lowBits) Hash(instr uint32) uint8 { return uint8(instr) & uint8(1<<l-1) }
func (l lowBits) Width() int              { return int(l) }

// blowupGraph is the textbook subset-construction blow-up, at W=4. Nodes
// a0 (hash 0) and a1 (hash 1) both lead to {a0, a1}; a1 also enters a
// chain of k levels, each a pair of nodes (hashes 0 and 1) leading to the
// next level, and the last level is terminal. The frontier records which
// of the last k hashes were 1, so 2^k frontiers are reachable.
func blowupGraph(k int) *Graph {
	g := &Graph{Width: 4, nodes: map[uint32]*Node{}}
	add := func(addr uint32, hash uint8, succ ...uint32) {
		g.nodes[addr] = &Node{Addr: addr, Hash: hash, Succ: succ}
		g.order = append(g.order, addr)
	}
	level := func(i int) uint32 { return uint32(8 * i) } // level i's hash-0 node; +4 is its hash-1 node
	add(0, 0, 0, 4)
	add(4, 1, 0, 4, level(1), level(1)+4)
	for i := 1; i <= k; i++ {
		var succ []uint32
		if i < k {
			succ = []uint32{level(i + 1), level(i+1) + 4}
		}
		add(level(i), 0, succ...)
		add(level(i)+4, 1, succ...)
	}
	return g
}

// TestCompiledCapFallback: a graph whose subset construction outgrows the
// cap keeps the bitmap step, and both sides of the cap stay exact. The
// blow-up graph has 2^k+1 states besides the alarm state, so at W=4 the
// 2^16-entry cap holds k=11 and not k=12.
func TestCompiledCapFallback(t *testing.T) {
	newHasher := func() mhash.Hasher { return lowBits(4) }
	rng := rand.New(rand.NewSource(26))
	for _, tc := range []struct {
		k       int
		maxEnts int
		compile bool
	}{
		{5, 1 << 10, true},
		{6, 1 << 10, false},
		{11, tableCap, true},
		{12, tableCap, false},
	} {
		t.Run(fmt.Sprintf("k%d/cap%d", tc.k, tc.maxEnts), func(t *testing.T) {
			g := blowupGraph(tc.k)
			p, err := Pack(g)
			if err != nil {
				t.Fatal(err)
			}
			m, err := newPacked(p, newHasher(), tc.maxEnts)
			if err != nil {
				t.Fatal(err)
			}
			if got := m.table != nil; got != tc.compile {
				t.Fatalf("compiled=%v, want %v", got, tc.compile)
			}
			if tc.compile && len(m.pop) != 1<<tc.k+2 {
				t.Fatalf("%d states, want %d", len(m.pop), 1<<tc.k+2)
			}
			// NewPacked compiles up to k=11; the capped monitor under test
			// takes the compiled monitor's place.
			x := newExactTrio(t, g, newHasher, tc.k <= 11)
			x.compiled = m
			for i := 0; i < 5000; i++ {
				w := isa.Word(rng.Intn(2))
				if rng.Intn(50) == 0 {
					w = isa.Word(rng.Intn(16))
				}
				if !x.observe(t, uint32(4*i), w) {
					x.reset()
				}
			}
			if _, _, maxPos := x.ref.Counters(); maxPos < tc.k {
				t.Fatalf("stream never widened the frontier: max positions %d", maxPos)
			}
		})
	}
}

// TestCompiledNodeBound: a graph over maxCompiledNodes keeps the bitmap
// step though its table would fit. A line of nodes, node i hashing to
// i mod 16, compiles to one state per node; walking it to the end empties
// the frontier, and the next instruction alarms.
func TestCompiledNodeBound(t *testing.T) {
	for _, n := range []int{maxCompiledNodes, maxCompiledNodes + 1} {
		g := &Graph{Width: 4, nodes: map[uint32]*Node{}}
		for i := 0; i < n; i++ {
			node := &Node{Addr: uint32(4 * i), Hash: uint8(i % 16)}
			if i+1 < n {
				node.Succ = []uint32{uint32(4 * (i + 1))}
			}
			g.nodes[node.Addr] = node
			g.order = append(g.order, node.Addr)
		}
		x := newExactTrio(t, g, func() mhash.Hasher { return lowBits(4) }, n <= maxCompiledNodes)
		for i := 0; i <= n; i++ {
			if x.observe(t, uint32(4*i), isa.Word(i%16)) != (i < n) {
				t.Fatalf("%d nodes: step %d verdict wrong", n, i)
			}
		}
	}
}

// TestPackedObserveAllocs pins the per-instruction step at zero heap
// allocations in both modes.
func TestPackedObserveAllocs(t *testing.T) {
	prog, err := apps.IPv4CM().Program()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Extract(prog, mhash.NewMerkle(7))
	if err != nil {
		t.Fatal(err)
	}
	x := newExactTrio(t, g, func() mhash.Hasher { return mhash.NewMerkle(7) }, true)
	code := prog.CodeWords()
	for _, m := range []*PackedMonitor{x.compiled, x.bitmap} {
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			if !m.Observe(uint32(i), code[i%len(code)].W) {
				m.Reset()
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("compiled=%v: %.1f allocs per Observe, want 0", m.table != nil, allocs)
		}
	}
}

// BenchmarkNewPacked is the install-time cost of the monitor, compile
// included, per core.
func BenchmarkNewPacked(b *testing.B) {
	for _, name := range []string{"acl", "ipv4cm"} {
		for _, width := range []int{4, 8} {
			b.Run(fmt.Sprintf("%s/W%d", name, width), func(b *testing.B) {
				app, err := apps.ByName(name)
				if err != nil {
					b.Fatal(err)
				}
				prog, err := app.Program()
				if err != nil {
					b.Fatal(err)
				}
				h := merkle(b, 0x5EED, width)()
				g, err := Extract(prog, h)
				if err != nil {
					b.Fatal(err)
				}
				p, err := Pack(g)
				if err != nil {
					b.Fatal(err)
				}
				fast := mhash.NewFastDefault(h)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := NewPacked(p, fast); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPackedStep is the per-instruction cost of each monitor over
// recorded benign ipv4cm traffic, hash lookup (a warm FastHasher)
// included.
func BenchmarkPackedStep(b *testing.B) {
	prog, err := apps.IPv4CM().Program()
	if err != nil {
		b.Fatal(err)
	}
	gen := packet.NewGenerator(1)
	pkts := make([][]byte, 64)
	for i := range pkts {
		pkts[i] = gen.Next()
	}
	runs := RecordRuns(apps.NewCore(prog), pkts)
	var pcs []uint32
	var words []isa.Word
	var starts []bool
	for _, r := range runs {
		for i := range r.Words {
			starts = append(starts, i == 0)
		}
		pcs = append(pcs, r.PCs...)
		words = append(words, r.Words...)
	}
	newHasher := func() mhash.Hasher { return mhash.NewMerkle(0x5EED) }
	g, err := Extract(prog, newHasher())
	if err != nil {
		b.Fatal(err)
	}
	x := newExactTrio(b, g, newHasher, true)
	if x.ref, err = New(g, mhash.NewFastDefault(newHasher())); err != nil {
		b.Fatal(err)
	}
	for _, m := range []struct {
		name string
		mon  interface {
			Observe(uint32, isa.Word) bool
			Reset()
		}
	}{{"map", x.ref}, {"bitmap", x.bitmap}, {"compiled", x.compiled}} {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k := i % len(words)
				if starts[k] {
					m.mon.Reset()
				}
				m.mon.Observe(pcs[k], words[k])
			}
		})
	}
}
