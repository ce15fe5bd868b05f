package shard

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sdmmon/internal/network"
	"sdmmon/internal/npu"
	"sdmmon/internal/obs"
	"sdmmon/internal/packet"
)

// seqPacket builds one UDP packet of a flow identified by its source port,
// carrying a big-endian sequence number as the payload — the fixture the
// ordering and fast-path tests read back out of the drain hook.
func seqPacket(srcPort uint16, seq uint32) []byte {
	var pay [4]byte
	binary.BigEndian.PutUint32(pay[:], seq)
	u := &packet.UDP{SrcPort: srcPort, DstPort: 7, Payload: pay[:]}
	p := &packet.IPv4{
		TTL: 64, Proto: packet.ProtoUDP,
		Src: packet.IP(10, 0, 0, 1), Dst: packet.IP(192, 168, 0, 9),
		Payload: u.Marshal(),
	}
	b, err := p.Marshal()
	if err != nil {
		panic(err)
	}
	return b
}

// TestDepthGaugeCoversInflightMidDrain pins the stale-gauge bugfix: the
// depth gauge must reflect queued + in-flight packets, so a scrape taken
// while the worker holds a dequeued batch agrees with Stats().Backlog. The
// old drain path set the gauge to the residual queue length at dequeue
// time, understating the true backlog by the batch in flight.
func TestDepthGaugeCoversInflightMidDrain(t *testing.T) {
	col := obs.New(0)
	plane, err := NewPlane(Config{
		NPs:           []*npu.NP{planeNP(t, 1, 7)},
		QueueCapacity: 256,
		MarkThreshold: 256, // marking off: every submission queues
		BatchSize:     16,
		Obs:           col,
	})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan int, 1)
	release := make(chan struct{})
	var once sync.Once
	plane.drainHook = func(shard int, pkts [][]byte) {
		once.Do(func() {
			entered <- len(pkts)
			<-release
		})
	}

	const total = 40
	gen, err := network.NewFlowGenerator(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		if got := plane.Submit(gen.Next()); got != AdmitQueued {
			t.Fatalf("submit %d: %v, want queued", i, got)
		}
	}
	inflight := <-entered
	if inflight < 1 {
		t.Fatalf("worker entered the hook with an empty batch")
	}
	// The worker is wedged mid-drain: inflight packets dequeued but not
	// yet accounted, the rest on the ring. Gauge and Stats must agree on
	// the whole backlog.
	g := col.Registry().Gauge(`shard_queue_depth{shard="0"}`)
	st := plane.Stats()
	if st.Shards[0].Backlog != total {
		t.Fatalf("mid-drain Backlog = %d, want %d", st.Shards[0].Backlog, total)
	}
	if got := int(g.Value()); got != total {
		t.Errorf("mid-drain depth gauge = %d, want %d (batch of %d in flight understated)",
			got, total, inflight)
	}
	close(release)
	plane.Close()
	st = plane.Stats()
	if !st.Conserved() || st.Backlog != 0 {
		t.Fatalf("after close: backlog %d, conserved %v: %+v", st.Backlog, st.Conserved(), st)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("drained gauge = %v, want 0", got)
	}
}

// TestClosedPlaneSubmitFastPath pins the admission-gate reorder: Submit on
// a closed (or locked-down) plane must refuse before doing any dispatch
// work — no flow hash, no pooled copy, no per-card accounting, no
// allocation — so a shutdown or lockdown storm costs almost nothing. The
// test pins the refusal by what it leaves behind (no allocation, no shard
// arrival, exact starved accounting); BenchmarkClosedPlaneSubmit records
// its cost.
func TestClosedPlaneSubmitFastPath(t *testing.T) {
	closed, err := NewPlane(Config{NPs: []*npu.NP{planeNP(t, 1, 9)}, QueueCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	pkt := seqPacket(999, 0)

	const runs = 500
	allocs := testing.AllocsPerRun(runs, func() {
		if got := closed.Submit(pkt); got != AdmitStarved {
			t.Fatalf("closed-plane submit = %v, want starved", got)
		}
	})
	if allocs != 0 {
		t.Errorf("closed-plane submit allocates %.2f per packet, want 0", allocs)
	}
	st := closed.Stats()
	for _, s := range st.Shards {
		if s.Arrived != 0 {
			t.Errorf("closed-plane submit reached shard %d (%d arrivals) — gate runs after dispatch", s.Shard, s.Arrived)
		}
	}
	if st.Arrived != runs+1 || st.Starved != st.Arrived {
		t.Errorf("closed-plane accounting: arrived %d starved %d, want both %d", st.Arrived, st.Starved, runs+1)
	}
	if !st.Conserved() {
		t.Fatalf("not conserved: %+v", st)
	}
}

// BenchmarkClosedPlaneSubmit records the cost of the refusal fast path.
func BenchmarkClosedPlaneSubmit(b *testing.B) {
	np, err := npu.NewBenchNP("", 1, 3)
	if err != nil {
		b.Fatal(err)
	}
	plane, err := NewPlane(Config{NPs: []*npu.NP{np}, QueueCapacity: 64})
	if err != nil {
		b.Fatal(err)
	}
	plane.Close()
	pkt := seqPacket(999, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plane.Submit(pkt)
	}
}

// TestSubmitSteadyStateZeroAllocs is the submit-side half of the
// zero-copy gate: with the arena warm, admitting a packet — flow hash,
// admission control, pooled copy, ring publish, gauge update — performs
// zero heap allocations. The worker is wedged behind the drain hook so
// only the producer path is measured.
func TestSubmitSteadyStateZeroAllocs(t *testing.T) {
	plane, err := NewPlane(Config{
		NPs:           []*npu.NP{planeNP(t, 1, 5)},
		QueueCapacity: 4096,
		MarkThreshold: 4096,
		BatchSize:     16,
	})
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	plane.drainHook = func(int, [][]byte) { <-block }
	pkt := seqPacket(4242, 1)
	allocs := testing.AllocsPerRun(400, func() {
		if got := plane.Submit(pkt); got != AdmitQueued {
			t.Fatalf("steady-state submit = %v, want queued", got)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state submit allocates %.2f per packet, want 0", allocs)
	}
	close(block)
	plane.Close()
	st := plane.Stats()
	if !st.Conserved() || st.Backlog != 0 {
		t.Fatalf("after close: backlog %d, conserved %v", st.Backlog, st.Conserved())
	}
}

// TestSubmitDrainSteadyStateAllocsAmortized is the whole-path half of the
// zero-copy gate: a warm plane moving full batches from SubmitBatch
// through the NP and back to the arena stays within the npu batch
// engine's own amortized allocation standard (per-batch bookkeeping —
// the release closure, worker scheduling — amortized across the batch;
// nothing per-packet).
func TestSubmitDrainSteadyStateAllocsAmortized(t *testing.T) {
	col := obs.New(0)
	plane, err := NewPlane(Config{
		NPs:           []*npu.NP{planeNP(t, 1, 63)},
		QueueCapacity: 2048,
		MarkThreshold: 2048,
		BatchSize:     64,
		Obs:           col,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := network.NewFlowGenerator(64, 17)
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 512
	pkts := gen.NextBatch(make([][]byte, chunk))
	fwd := col.Registry().Counter("shard_forwarded_total")
	drp := col.Registry().Counter("shard_app_drops_total")
	var want uint64
	cycle := func() {
		plane.SubmitBatch(pkts)
		want += chunk
		// Settled-counter spin (no Stats(): that would allocate in the
		// measured region). Capacity covers the chunk, so every packet
		// settles as forwarded or app-dropped.
		for fwd.Value()+drp.Value() < want {
			runtime.Gosched()
		}
	}
	cycle() // warm the arena, the NP pools, and the worker
	allocs := testing.AllocsPerRun(20, cycle)
	perPkt := allocs / chunk
	t.Logf("submit+drain steady state: %.3f allocs/packet (%.1f per %d-packet chunk)", perPkt, allocs, chunk)
	if perPkt > 0.2 {
		t.Errorf("submit+drain steady state allocates %.3f per packet, want amortized <= 0.2", perPkt)
	}
	plane.Close()
	if st := plane.Stats(); !st.Conserved() || st.Backlog != 0 {
		t.Fatalf("after close: backlog %d, conserved %v", st.Backlog, st.Conserved())
	}
}

// TestSubmitBatchConservationUnderFailoverAndClose drives concurrent
// SubmitBatch callers into a failover and a racing Close and pins three
// contracts at once: every packet gets exactly one admission outcome and
// exactly one accounting slot (Arrived is exact, conservation holds,
// backlog drains to zero); the failover fires exactly once; and per-flow
// ordering survives — on any one shard, a flow's packets are drained in
// submit order. Run with -race (make test-shard).
func TestSubmitBatchConservationUnderFailoverAndClose(t *testing.T) {
	nps := []*npu.NP{planeNP(t, 1, 81), planeNP(t, 1, 82), planeNP(t, 1, 83)}
	plane, err := NewPlane(Config{
		NPs:           nps,
		QueueCapacity: 128,
		MarkThreshold: 128, // marking off; a small queue still tail-drops
		BatchSize:     16,
	})
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		flow uint16
		seq  uint32
	}
	// One slot per shard: each worker appends only to its own slice, and
	// the main goroutine reads after Close (workers joined), so no lock is
	// needed.
	drained := make([][]rec, len(nps))
	plane.drainHook = func(shard int, pkts [][]byte) {
		for _, p := range pkts {
			drained[shard] = append(drained[shard], rec{
				flow: binary.BigEndian.Uint16(p[20:22]),
				seq:  binary.BigEndian.Uint32(p[28:32]),
			})
		}
	}

	const (
		submitters = 4
		flowsPer   = 8 // flows owned by one submitter: disjoint across submitters
		perFlow    = 500
		total      = submitters * flowsPer * perFlow
	)
	var progress atomic.Int64
	totals := make([]BatchAdmission, submitters)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			chunk := make([][]byte, 0, 32)
			flush := func() {
				a := plane.SubmitBatch(chunk)
				totals[g].Queued += a.Queued
				totals[g].Marked += a.Marked
				totals[g].Dropped += a.Dropped
				totals[g].Starved += a.Starved
				progress.Add(int64(len(chunk)))
				chunk = chunk[:0]
			}
			// Interleave the submitter's flows so every chunk carries
			// several flows and every flow spans many chunks.
			for seq := 0; seq < perFlow; seq++ {
				for f := 0; f < flowsPer; f++ {
					port := uint16(2000 + g*flowsPer + f)
					chunk = append(chunk, seqPacket(port, uint32(seq)))
					if len(chunk) == cap(chunk) {
						flush()
					}
				}
			}
			flush()
		}(g)
	}
	// The drill: fail a shard mid-run, then close the plane while
	// submitters are still pushing.
	var drill sync.WaitGroup
	drill.Add(1)
	go func() {
		defer drill.Done()
		for progress.Load() < total/2 {
			runtime.Gosched()
		}
		if err := plane.FailShard(1); err != nil {
			t.Error(err)
		}
		for progress.Load() < 3*total/4 {
			runtime.Gosched()
		}
		plane.Close()
	}()
	wg.Wait()
	drill.Wait()
	plane.Close() // idempotent; guarantees workers are joined

	st := plane.Stats()
	if st.Arrived != total {
		t.Errorf("arrived %d, want exactly %d", st.Arrived, total)
	}
	accounted := 0
	for _, a := range totals {
		accounted += a.Total()
	}
	if accounted != total {
		t.Errorf("admission outcomes account for %d packets, want %d", accounted, total)
	}
	if !st.Conserved() {
		t.Fatalf("not conserved: %+v", st)
	}
	if st.Backlog != 0 {
		t.Errorf("backlog %d after close", st.Backlog)
	}
	if st.Failovers != 1 {
		t.Errorf("failovers = %d, want 1", st.Failovers)
	}
	if !st.Shards[1].Failed {
		t.Error("shard 1 not marked failed")
	}

	// Per-flow ordering per shard: a flow's packets were submitted in
	// strictly increasing sequence by its one owner, traverse one FIFO
	// ring, and are drained by one worker — so on any shard the sequence
	// numbers of one flow must be strictly increasing (drops leave gaps;
	// they never reorder).
	drainedTotal := 0
	for shard, recs := range drained {
		drainedTotal += len(recs)
		lastSeq := map[uint16]uint32{}
		for i, r := range recs {
			if last, ok := lastSeq[r.flow]; ok && r.seq <= last {
				t.Fatalf("shard %d: flow %d drained seq %d after %d (record %d) — per-flow order broken",
					shard, r.flow, r.seq, last, i)
			}
			lastSeq[r.flow] = r.seq
		}
	}
	if drainedTotal == 0 {
		t.Fatal("no packet reached a drain worker")
	}
}
