package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"sdmmon/internal/apps"
	"sdmmon/internal/isa"
	"sdmmon/internal/mhash"
	"sdmmon/internal/monitor"
	"sdmmon/internal/npu"
)

// replayChunk is how many packets one cpu, monitor or mhash replay span
// covers; it divides recorded.
const replayChunk = 250

// simStats are the simulated statistics of the recorded packets at queue
// depth 0. They count what the simulated hardware did, so a change that
// only makes the host faster leaves them bit-identical; pinned.json holds
// each workload's values.
type simStats struct {
	InstrPerPkt   float64 `json:"cpu.instr_per_pkt"`
	CyclesPerPkt  float64 `json:"sim.cycles_per_pkt"`
	AlarmsPerKpkt float64 `json:"monitor.alarms_per_kpkt"`
}

// stream is one lane's recording: the instruction stream each recorded
// packet retired, as the monitor observed it.
type stream struct {
	pkts       []int    // pool indices of the lane's recorded packets
	pcs, words []uint32 // every observed (pc, word), packet after packet
	start      []int    // packet k observed [start[k], start[k+1])
}

// outcome holds one packet's observed fate against the oracle.
func outcome(p *pool, i int, fwd, alarm bool, verdict int, out []byte) failures {
	var f failures
	if fwd != p.fwd[i] {
		f.WrongVerdicts++
	}
	if alarm != p.alarm[i] {
		f.MissedAlarms++
	}
	if hijacked(verdict, out) {
		f.Hijacks++
	}
	return f
}

// record runs the first packets of the pool through one monitored core per
// lane at queue depth 0 — the NP's per-packet path without the NP — and
// holds every outcome against the oracle. It returns the simulated
// statistics and, with keep, the recorded streams for the layer replays.
func (w *workload) record(p *pool, keep bool) (simStats, []stream, failures, error) {
	var f failures
	n := min(recorded, len(p.pkts))
	streams := make([]stream, len(w.lanes))
	cores := make([]*apps.Core, len(w.lanes))
	mons := make([]*monitor.PackedMonitor, len(w.lanes))
	for li, l := range w.lanes {
		c, err := l.core()
		if err != nil {
			return simStats{}, nil, f, err
		}
		m, _, err := l.monitor()
		if err != nil {
			return simStats{}, nil, f, err
		}
		st := &streams[li]
		c.Trace = func(pc uint32, word isa.Word) bool {
			if keep {
				st.pcs = append(st.pcs, pc)
				st.words = append(st.words, uint32(word))
			}
			return m.Observe(pc, word)
		}
		cores[li], mons[li] = c, m
	}
	var instr, cycles, alarms uint64
	for i := 0; i < n; i++ {
		li := p.lane[i]
		c, m, st := cores[li], mons[li], &streams[li]
		st.pkts = append(st.pkts, i)
		st.start = append(st.start, len(st.words))
		m.Reset()
		retired := c.CPU().Retired
		res := c.Process(p.pkts[i], 0)
		instr += c.CPU().Retired - retired
		cycles += res.Cycles
		alarm := res.Exc != nil && m.Alarmed()
		if res.Exc != nil {
			c.Recover()
		}
		if alarm {
			alarms++
		}
		f.add(outcome(p, i, res.Verdict == apps.VerdictForward && res.Exc == nil, alarm, res.Verdict, res.Packet))
	}
	for li := range streams {
		streams[li].start = append(streams[li].start, len(streams[li].words))
	}
	sim := simStats{
		InstrPerPkt:   float64(instr) / float64(n),
		CyclesPerPkt:  float64(cycles) / float64(n),
		AlarmsPerKpkt: float64(alarms) * 1000 / float64(n),
	}
	return sim, streams, f, nil
}

// replay calls fn on consecutive chunks [lo, hi) of n recorded packets,
// inside one span each, in whole passes until d has elapsed. fn returns
// the items the chunk covered (packets, steps or lookups).
func replay(tr *tracer, name string, n int, d time.Duration, fn func(lo, hi int) int) {
	deadline := time.Now().Add(d)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for lo := 0; lo < n; lo += replayChunk {
			s := tr.begin(name, -1)
			items := fn(lo, min(lo+replayChunk, n))
			tr.end(s, items)
		}
	}
}

// layerStats are the counts the replays take alongside their spans.
type layerStats struct {
	instr, cpuPkts uint64 // retired and packets run by the cpu replay
	steps, monPkts uint64 // monitor steps and packets of the monitor replay
	hits, misses   uint64 // the monitors' FastHashers
	maxPositions   int
	drainBatches   int
	drainMallocs   uint64
	drainPerPkt    [][]float64 // each lane's drained batches: ns per packet
	replayed       uint64      // packets the drain held against the oracle
	fail           failures
}

// replayRounds is how many turns each layer replay takes.
const replayRounds = 10

// replayLayers replays the recorded packets, in pool order, through each
// layer's public functions with spans per chunk or batch: the bare
// interpreter (apps.Core.Process with no trace), the packed monitor over
// the recorded instruction streams, the FastHasher over the recorded
// words, and the NP's batch drain. Each lane has its own core, monitor and
// hasher; in pool order every chunk mixes the lanes as the traffic does,
// so chunks cost alike. The replays take turns, phase/replayRounds each,
// for replayRounds rounds and until the drain has run minBatches batches,
// so that a burst of the host's slowness falls on every layer alike. The
// NP must no longer be owned by a plane.
func (w *workload) replayLayers(np *npu.NP, p *pool, streams []stream, tr *tracer, phase time.Duration, minBatches int) (layerStats, error) {
	ls := layerStats{drainPerPkt: make([][]float64, len(w.lanes))}
	// order[i] is recorded packet i's lane and its place in that lane's
	// stream: record appended each lane's packets in pool order.
	type at struct{ lane, k int }
	var order []at
	seen := make([]int, len(w.lanes))
	for i := range min(recorded, len(p.pkts)) {
		li := p.lane[i]
		order = append(order, at{li, seen[li]})
		seen[li]++
	}
	n := len(order)
	cores := make([]*apps.Core, len(w.lanes))
	mons := make([]*monitor.PackedMonitor, len(w.lanes))
	fasts := make([]*mhash.FastHasher, len(w.lanes))
	hashers := make([]*mhash.FastHasher, len(w.lanes))
	for li, l := range w.lanes {
		var err error
		if cores[li], err = l.core(); err != nil {
			return ls, err
		}
		if mons[li], fasts[li], err = l.monitor(); err != nil {
			return ls, err
		}
		hashers[li] = mhash.NewFast(mhash.NewMerkle(l.param), mhash.DefaultFastCacheBits)
	}

	cpuChunk := func(lo, hi int) int {
		for _, a := range order[lo:hi] {
			c := cores[a.lane]
			r0 := c.CPU().Retired
			c.Process(p.pkts[streams[a.lane].pkts[a.k]], 0)
			ls.instr += c.CPU().Retired - r0
		}
		ls.cpuPkts += uint64(hi - lo)
		return hi - lo
	}
	monitorChunk := func(lo, hi int) int {
		steps := 0
		for _, a := range order[lo:hi] {
			st, m := &streams[a.lane], mons[a.lane]
			m.Reset()
			for x := st.start[a.k]; x < st.start[a.k+1]; x++ {
				steps++
				if !m.Observe(st.pcs[x], isa.Word(st.words[x])) {
					break
				}
			}
		}
		ls.steps += uint64(steps)
		ls.monPkts += uint64(hi - lo)
		return steps
	}
	hashChunk := func(lo, hi int) int {
		lookups := 0
		for _, a := range order[lo:hi] {
			st := &streams[a.lane]
			for _, word := range st.words[st.start[a.k]:st.start[a.k+1]] {
				hashers[a.lane].Hash(word)
			}
			lookups += st.start[a.k+1] - st.start[a.k]
		}
		return lookups
	}
	d := newDrainer(w, p)
	turn := phase / replayRounds
	for r := 0; r < replayRounds || ls.drainBatches < minBatches; r++ {
		runtime.GC()
		replay(tr, "cpu.chunk", n, turn, cpuChunk)
		replay(tr, "monitor.chunk", n, turn, monitorChunk)
		replay(tr, "mhash.chunk", n, turn, hashChunk)
		if err := d.drain(np, tr, turn, &ls); err != nil {
			return ls, err
		}
	}
	for li, m := range mons {
		ls.hits += fasts[li].Hits
		ls.misses += fasts[li].Misses
		ls.maxPositions = max(ls.maxPositions, m.MaxPositions)
	}
	return ls, nil
}

// drainer feeds the pool, in pool order and cycling through it, to the
// NP's batch engine: each lane's packets in batches of its batch size,
// through DrainBatch (DrainBatchDomain per tenant). Each batch's outcome
// is held against the oracle.
type drainer struct {
	w       *workload
	p       *pool
	next    int
	pending [][][]byte
	want    []npu.BatchOutcome
}

func newDrainer(w *workload, p *pool) *drainer {
	d := &drainer{w: w, p: p, pending: make([][][]byte, len(w.lanes)), want: make([]npu.BatchOutcome, len(w.lanes))}
	for li, l := range w.lanes {
		d.pending[li] = make([][]byte, 0, l.batch)
	}
	return d
}

// drain runs batches, at least one, until dur has elapsed, with a span
// per batch.
func (d *drainer) drain(np *npu.NP, tr *tracer, dur time.Duration, ls *layerStats) error {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	deadline := time.Now().Add(dur)
	for {
		i := d.next
		d.next = (d.next + 1) % len(d.p.pkts)
		li := d.p.lane[i]
		l := d.w.lanes[li]
		d.pending[li] = append(d.pending[li], d.p.pkts[i])
		if d.p.fwd[i] {
			d.want[li].Forwarded++
		}
		if d.p.alarm[i] {
			d.want[li].Alarms++
		}
		if len(d.pending[li]) < l.batch {
			continue
		}
		s := tr.begin("npu.drain", -1)
		var out npu.BatchOutcome
		var err error
		if l.tenant == "" {
			out, err = np.DrainBatch(d.pending[li], 0)
		} else {
			out, err = np.DrainBatchDomain(l.tenant, d.pending[li], 0)
		}
		tr.end(s, l.batch)
		if err != nil {
			return err
		}
		ls.drainPerPkt[li] = append(ls.drainPerPkt[li], float64(tr.spans[s].End-tr.spans[s].Start)/float64(l.batch))
		ls.replayed += uint64(l.batch)
		ls.fail.Rejected += uint64(out.Unprocessed)
		ls.fail.WrongVerdicts += absDiff(out.Forwarded, d.want[li].Forwarded)
		ls.fail.MissedAlarms += absDiff(out.Alarms, d.want[li].Alarms)
		d.pending[li], d.want[li] = d.pending[li][:0], npu.BatchOutcome{}
		ls.drainBatches++
		if !time.Now().Before(deadline) {
			break
		}
	}
	runtime.ReadMemStats(&ms1)
	ls.drainMallocs += ms1.Mallocs - ms0.Mallocs
	return nil
}

// layerMetrics turns the traced run's spans, window pairs and counts into
// the per-layer metrics.
func (w *workload) layerMetrics(tr *tracer, ls layerStats, dr driveResult, sim simStats) map[string]summary {
	out := make(map[string]summary)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	var overhead, untracedCPU []float64
	var tracedWall time.Duration
	for i := 0; i+1 < len(dr.windows); i += 2 {
		u, t := dr.windows[i], dr.windows[i+1]
		overhead = append(overhead, 1-t.pktsPerSec()/u.pktsPerSec())
		untracedCPU = append(untracedCPU, u.cpuNsPerPkt())
		tracedWall += t.wall
	}
	out["trace.overhead_frac"] = summarize("frac", overhead)
	sh := dr.final.Shards[0]
	out["shard.batch_fill"] = one("ratio", ratio(float64(sh.Processed), float64(sh.Batches*uint64(w.lanes[0].batch))))
	out["shard.max_depth"] = one("count", float64(sh.MaxDepth))
	sleepNs, _ := tr.selfTotal("load.sleep")
	out["shard.driver_wait_frac"] = one("frac", ratio(float64(sleepNs), float64(tracedWall)))
	out["cpu.instr_per_pkt"] = one("count", sim.InstrPerPkt)
	out["sim.cycles_per_pkt"] = one("cycles", sim.CyclesPerPkt)
	out["monitor.alarms_per_kpkt"] = one("count", sim.AlarmsPerKpkt)

	cpu := unhalved("ns", tr.selfPerItem("cpu.chunk"), false)
	out["cpu.ns_per_pkt"] = cpu
	out["cpu.ns_per_instr"] = one("ns", ratio(cpu.Value, ratio(float64(ls.instr), float64(ls.cpuPkts))))

	step := unhalved("ns", tr.selfPerItem("monitor.chunk"), false)
	lookup := unhalved("ns", tr.selfPerItem("mhash.chunk"), false)
	stepsPerPkt := ratio(float64(ls.steps), float64(ls.monPkts))
	out["monitor.ns_per_step"] = step
	out["monitor.self_ns_per_step"] = one("ns", step.Value-lookup.Value)
	out["monitor.max_positions"] = one("count", float64(ls.maxPositions))
	out["mhash.ns_per_lookup"] = lookup
	out["mhash.hit_rate"] = one("ratio", ratio(float64(ls.hits), float64(ls.hits+ls.misses)))
	out["mhash.lookups_per_pkt"] = one("count", stepsPerPkt)

	// Lanes run different applications, so their batches cost differently:
	// the drain's cost per packet is taken per lane and weighted by the
	// lane's share of the packets.
	var drainPerPkt float64
	for li, l := range w.lanes {
		share := float64(len(ls.drainPerPkt[li])*l.batch) / float64(ls.replayed)
		drainPerPkt += share * unhalved("ns", ls.drainPerPkt[li], false).Value
	}
	// What a drain costs beyond interpreting and monitoring its packets:
	// packet DMA and reset, slot locks, the per-core goroutines, results.
	out["npu.dispatch_ns_per_pkt"] = one("ns", drainPerPkt-cpu.Value-step.Value*stepsPerPkt)
	out["npu.allocs_per_batch"] = one("count", ratio(float64(ls.drainMallocs), float64(ls.drainBatches)))
	d := tr.durations("npu.drain")
	for i := range d {
		d[i] /= 1e3
	}
	slices.Sort(d)
	for _, pc := range []float64{50, 99} {
		s := summarize("us", d)
		s.Value = nearestRank(d, pc)
		out[fmt.Sprintf("npu.drain_us_p%.0f", pc)] = s
	}

	for name, span := range map[string]string{
		"seccrypto.build_ms": "seccrypto.build", "core.install_ms": "core.install",
		"npu.install_ms": "npu.install", "tenant.install_ms": "tenant.install",
	} {
		ms := tr.durations(span)
		for i := range ms {
			ms[i] /= 1e6
		}
		out[name] = summarize("ms", ms)
	}

	submit := unhalved("ns", tr.selfPerItem("shard.submit"), false)
	out["shard.submit_ns_per_pkt"] = submit
	// shard submit + cpu + monitor + npu dispatch, that is submit + drain.
	out["budget.coverage"] = one("ratio", ratio(submit.Value+drainPerPkt,
		unhalved("ns", untracedCPU, false).Value))
	return out
}
