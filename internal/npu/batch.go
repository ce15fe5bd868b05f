package npu

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sdmmon/internal/apps"
	"sdmmon/internal/cpu"
	"sdmmon/internal/obs"
)

// ProcessBatch runs a batch of packets across the NP's cores concurrently —
// one goroutine per core, each with its own CPU, memory, hash unit and
// monitor, exactly like the hardware's parallelism. Workers claim packets
// from a shared atomic cursor (packet-level load balancing with no channel
// traffic); results keep their input order: results[i] is the fate of
// pkts[i].
//
// Output bytes are copied into a per-NP arena that is reused across
// batches, so the per-packet path performs no heap allocations in steady
// state; see Result for the lifetime of the Packet slices.
//
// Error semantics: a packet that cannot be processed (e.g. it exceeds the
// packet memory window) leaves its zero-valued Result in place and the
// first such error is returned alongside the full results slice. Statistics
// for every packet that *was* processed are always merged into the NP's
// aggregate stats, error or not — partial work never vanishes from the
// counters.
//
// Concurrent ProcessBatch calls on the same NP serialize on batchMu (the
// scratch arena is single-owner), so a management-plane batch — a rollout
// health sample, say — can run against an NP that a shard worker is
// draining. Result.Packet slices are only valid until the next batch.
func (np *NP) ProcessBatch(pkts [][]byte, qdepth int) ([]Result, error) {
	results, _, _, err := np.processBatch(pkts, qdepth, &np.whole)
	return results, err
}

// processBatch is the shared batch engine: it additionally returns the
// merged stat delta of exactly this batch, which is how DrainBatch
// accounts a batch without a Stats() before/after window that concurrent
// traffic on the same NP would pollute, and the batch's CE-marked forward
// count, which must be tallied while batchMu is still held because the
// results alias the reused arena (a concurrent batch overwrites it the
// moment the lock is released).
//
// The batch runs on the cores of one view (domain.go): the whole NP or one
// protection domain. The view's partition must still be current — checked
// under batchMu, which SetDomains swaps the partition under — so a batch
// never runs on cores a repartition gave away. The loaded/available probes
// count only the view's cores, so a tenant whose domain is fully
// quarantined sees ErrNoCoreAvailable even while other tenants' cores are
// healthy.
func (np *NP) processBatch(pkts [][]byte, qdepth int, view *Domain) ([]Result, Stats, uint64, error) {
	np.batchMu.Lock()
	defer np.batchMu.Unlock()
	if err := view.Err(); err != nil {
		return nil, Stats{}, 0, err
	}
	loaded, available := 0, 0
	for _, id := range view.cores {
		s := np.slots[id]
		s.mu.Lock()
		if s.loaded {
			loaded++
		}
		if s.available() {
			available++
		}
		s.mu.Unlock()
	}
	if loaded == 0 {
		return nil, Stats{}, 0, ErrNoAppInstalled
	}
	if available == 0 {
		return nil, Stats{}, 0, ErrNoCoreAvailable
	}

	results := make([]Result, len(pkts))

	// Arena sizing: output length equals input length, so the per-result
	// regions are known up front and workers copy into disjoint slices.
	if len(np.offs) < len(pkts)+1 {
		np.offs = make([]int, len(pkts)+1)
	}
	offs := np.offs[:len(pkts)+1]
	offs[0] = 0
	for i, p := range pkts {
		offs[i+1] = offs[i] + len(p)
	}
	total := offs[len(pkts)]
	if cap(np.arena) < total {
		np.arena = make([]byte, total)
	}
	arena := np.arena[:total]

	if len(np.deltas) != len(np.slots) {
		np.deltas = make([]Stats, len(np.slots))
	}
	deltas := np.deltas
	for i := range deltas {
		deltas[i] = Stats{}
	}

	var cursor atomic.Int64
	var firstErr error
	var errOnce sync.Once
	var wg sync.WaitGroup

	// Batch latency is measured only when a collector is attached: the
	// clock reads bracket the fan-out/fan-in, not the per-packet path.
	var batchStart time.Time
	if np.batchLat != nil {
		batchStart = time.Now()
	}

	for _, coreID := range view.cores {
		slot := np.slots[coreID]
		slot.mu.Lock()
		ok := slot.available()
		slot.mu.Unlock()
		if !ok {
			continue
		}
		wg.Add(1)
		go func(coreID int, slot *coreSlot) {
			defer wg.Done()
			d := &deltas[coreID]
			for {
				// A core quarantined mid-batch stops claiming packets;
				// the shared cursor hands the remainder to the other
				// workers. The slot lock orders this read against
				// concurrent commits/rollbacks (which may lift a
				// quarantine) as well as this worker's own writes.
				slot.mu.Lock()
				q := slot.sup.quarantined
				slot.mu.Unlock()
				if q {
					return
				}
				i := int(cursor.Add(1)) - 1
				if i >= len(pkts) {
					return
				}
				res, err := processOnSlot(slot, coreID, pkts[i], qdepth, np.cfg.MonitorsEnabled, d)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					continue
				}
				// Copy the aliased core output into this packet's arena
				// region so every result in the batch stays valid at once.
				dst := arena[offs[i]:offs[i+1]]
				copy(dst, res.Packet)
				res.Packet = dst
				results[i] = res
			}
		}(coreID, slot)
	}
	wg.Wait()
	// Merge per-core deltas unconditionally: packets processed before or
	// after an errored one stay visible in the aggregate statistics (and in
	// each core's domain account). The stats mutex is taken once per batch.
	merged := np.mergeDeltas(deltas)
	if np.batchLat != nil {
		np.batchLat.Observe(time.Since(batchStart).Seconds())
	}
	// Every worker quarantined mid-batch: the unclaimed tail was never
	// processed. Claimed packets are always processed before the claim
	// loop re-checks quarantine, so the cursor bounds the loss exactly.
	if n := int(cursor.Load()); n < len(pkts) && firstErr == nil {
		firstErr = fmt.Errorf("npu: %d packets unprocessed: %w", len(pkts)-n, ErrNoCoreAvailable)
	}
	// CE-marked forward count, tallied before batchMu is released: the
	// Packet slices alias the arena, which the next batch reuses.
	var ecnMarked uint64
	for i := range results {
		r := &results[i]
		if r.Verdict == apps.VerdictForward && !r.Detected && !r.Faulted &&
			len(r.Packet) > 1 && r.Packet[1]&0x3 == 0x3 {
			ecnMarked++
		}
	}
	return results, merged, ecnMarked, firstErr
}

// add accumulates d into s.
func (s *Stats) add(d *Stats) {
	s.Processed += d.Processed
	s.Forwarded += d.Forwarded
	s.Dropped += d.Dropped
	s.Alarms += d.Alarms
	s.Faults += d.Faults
	s.WatchdogTrips += d.WatchdogTrips
	s.Quarantines += d.Quarantines
	s.Cycles += d.Cycles
}

// processOnSlot is the per-core packet path shared by ProcessOn (via the
// stats pointer indirection) and ProcessBatch. It holds the slot lock for
// the duration of the packet, so a concurrent Commit/Rollback drains the
// in-flight packet and cuts over at the boundary — no packet ever executes
// against a mixed binary/monitor/hasher image. The lock is per-core and
// uncontended in steady state; the path still performs zero heap
// allocations, and the returned Result.Packet aliases the core's output
// buffer.
func processOnSlot(slot *coreSlot, coreID int, pkt []byte, qdepth int, monitors bool, stats *Stats) (Result, error) {
	if len(pkt) > apps.MemSize-apps.PktBase {
		return Result{}, fmt.Errorf("npu: packet length %d exceeds the %d-byte packet memory window",
			len(pkt), apps.MemSize-apps.PktBase)
	}
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if monitors {
		slot.mon.Reset()
	}
	// Deferred tail of the previous packet's recovery: wipe the forensic
	// trace once the core takes new traffic (the dump stays readable
	// between the alarm and this packet).
	if slot.resetTrace {
		if slot.tracer != nil {
			slot.tracer.Reset()
		}
		slot.resetTrace = false
	}
	res := slot.core.Process(pkt, qdepth)

	out := Result{Core: coreID, Verdict: res.Verdict, Packet: res.Packet, Cycles: res.Cycles}
	stats.Processed++
	stats.Cycles += res.Cycles
	slot.cyc.Observe(float64(res.Cycles))
	event := false
	switch {
	case res.Exc != nil && monitors && slot.mon.Alarmed():
		out.Detected = true
		out.Verdict = apps.VerdictDrop
		stats.Alarms++
		stats.Dropped++
		event = true
		slot.ring.Emit(obs.EvAlarm, slot.mon.AlarmPC(), res.Cycles)
	case res.Exc != nil:
		out.Faulted = true
		out.Verdict = apps.VerdictDrop
		stats.Faults++
		if res.Exc.Kind == cpu.ExcCycleLimit {
			stats.WatchdogTrips++
			slot.ring.Emit(obs.EvWatchdog, 0, res.Cycles)
		} else {
			slot.ring.Emit(obs.EvFault, 0, res.Cycles)
		}
		stats.Dropped++
		event = true
	case res.Verdict == apps.VerdictForward:
		stats.Forwarded++
	default:
		stats.Dropped++
	}
	if event {
		// §2.1 recovery, eagerly at the alarm/fault boundary: packet
		// dropped (above), registers cleared with PC back at the entry
		// point, monitor reset. All fixed-size state — no allocation.
		slot.core.Recover()
		if monitors {
			slot.mon.Reset()
		}
		slot.resetTrace = true
		slot.ring.Emit(obs.EvRecover, 0, 0)
	}
	if slot.sup.record(event) {
		stats.Quarantines++
		slot.ring.Emit(obs.EvQuarantine, 0, 0)
	}
	return out, nil
}
