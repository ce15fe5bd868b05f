package npu

// This file is the NP's face toward a multi-NP traffic plane
// (internal/shard): a batch-drain entry point on every view (the whole NP
// or one protection domain) that reports per-batch outcomes instead of
// per-packet results. The race-safe health probe the dispatcher consults
// alongside it is Domain.Healthy (supervisor.go).

// BatchOutcome summarizes one drained batch. Unlike ProcessBatch's result
// slice it exposes no per-packet data, so a queue drainer can account a
// batch without walking (or retaining) individual results.
type BatchOutcome struct {
	Processed uint64 // packets that ran on a core
	Forwarded uint64
	Dropped   uint64 // verdict + alarm + fault drops
	Alarms    uint64
	Faults    uint64
	// ECNMarked counts forwarded packets leaving with the CE mark set
	// (whether the application marked them under queue pressure or they
	// arrived pre-marked by upstream admission control).
	ECNMarked uint64
	Cycles    uint64
	// Unprocessed counts packets of this batch that never reached a core:
	// rejected before execution (oversize) or left unclaimed because every
	// core quarantined mid-batch. Processed + Unprocessed == len(batch).
	Unprocessed int
}

// DrainBatch runs one batch through the batch engine on the view's cores
// and summarizes its fate. It is the hook a shard worker drains its
// ingress queue with: qdepth is the backlog the congestion-management
// applications see, and the returned error keeps ProcessBatch's semantics
// (first per-packet error, or ErrNoCoreAvailable when the batch could not
// finish on a fully quarantined view — even while other domains' cores
// stay healthy, which is what lets the shard plane fail over one tenant's
// lane without disturbing the card's other tenants). A stale view drains
// nothing and reports ErrUnknownDomain. The outcome is built from this
// batch's own merged stat delta — not a Stats() before/after window — so
// concurrent traffic on the same NP (a rollout's health sample batching
// against a live line card) cannot leak into the shard's accounting. The
// ECNMarked tally is taken by the batch engine's workers while each still
// holds its packet's output; a drain keeps no per-packet results, so it
// allocates no results slice and copies no output into the arena.
func (d *Domain) DrainBatch(pkts [][]byte, qdepth int) (BatchOutcome, error) {
	return d.DrainBatchRelease(pkts, qdepth, nil)
}

// DrainBatchRelease is DrainBatch with a buffer-return hook. The batch
// engine copies every input into core packet memory before executing it,
// so once processBatch comes back no reference to the pkts slices survives
// anywhere in the NP. release (if non-nil) is invoked exactly once at
// that point — after the engine's last read of the inputs, before the
// outcome is accounted — which is the earliest instant a zero-copy
// ingress (internal/shard) can recycle the buffers backing pkts without
// waiting for its own accounting to finish. Callers must not touch the
// buffers from the callback onward on this goroutine's behalf.
func (d *Domain) DrainBatchRelease(pkts [][]byte, qdepth int, release func()) (BatchOutcome, error) {
	_, delta, ecnMarked, err := d.np.processBatch(pkts, qdepth, d, false)
	if release != nil {
		release()
	}
	o := BatchOutcome{
		Processed:   delta.Processed,
		Forwarded:   delta.Forwarded,
		Dropped:     delta.Dropped,
		Alarms:      delta.Alarms,
		Faults:      delta.Faults,
		ECNMarked:   ecnMarked,
		Cycles:      delta.Cycles,
		Unprocessed: len(pkts) - int(delta.Processed),
	}
	return o, err
}

// DrainBatchDomain resolves a domain by name and drains one batch on its
// view.
func (np *NP) DrainBatchDomain(domain string, pkts [][]byte, qdepth int) (BatchOutcome, error) {
	d, err := np.Domain(domain)
	if err != nil {
		return BatchOutcome{Unprocessed: len(pkts)}, err
	}
	return d.DrainBatch(pkts, qdepth)
}
