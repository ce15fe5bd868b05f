// Package npu models the multiprocessor network processor of the paper: a
// set of PLASMA-like cores, each paired with a parameterizable hash unit
// and a hardware monitor, behind a packet dispatcher. Packets are assigned
// to cores; a monitor alarm triggers the paper's recovery sequence (§2.1):
// drop the attack packet, reset the core and its monitor, continue with the
// next packet.
package npu

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sdmmon/internal/apps"
	"sdmmon/internal/asm"
	"sdmmon/internal/cpu"
	"sdmmon/internal/isa"
	"sdmmon/internal/mhash"
	"sdmmon/internal/monitor"
	"sdmmon/internal/obs"
)

// Stats aggregates data-plane outcomes.
type Stats struct {
	Processed uint64
	Forwarded uint64
	Dropped   uint64 // all drops: verdict drops + alarm drops + fault drops
	Alarms    uint64 // monitor alarms (attack detections + any false alarms)
	Faults    uint64 // architectural exceptions without monitor alarm
	// WatchdogTrips counts the subset of Faults that were cycle-budget
	// exhaustions (ExcCycleLimit) — hung/runaway cores, surfaced
	// distinctly so hang injection is observable.
	WatchdogTrips uint64
	// Quarantines counts supervisor quarantine transitions (including
	// probation failures that re-quarantine a core).
	Quarantines uint64
	Cycles      uint64
}

// VerdictDrops returns the drops decided by the application itself (TTL,
// malformed, ACL deny) — Dropped minus the alarm and fault drops. Clamped
// at zero: an alarm or fault outcome counted without a corresponding drop
// (mid-quarantine accounting windows) must read as "no verdict drops", not
// wrap to a huge unsigned value.
func (s Stats) VerdictDrops() uint64 {
	if s.Dropped < s.Alarms+s.Faults {
		return 0
	}
	return s.Dropped - s.Alarms - s.Faults
}

// Conserved reports exact packet conservation: every processed packet is
// either forwarded or dropped (verdict, alarm, or fault) — the accounting
// invariant the fault-injection suite holds the data plane to.
func (s Stats) Conserved() bool { return s.Processed == s.Forwarded+s.Dropped }

// coreMonitor abstracts the per-core monitor implementation: the flattened
// packed fast path (default) or the map-based NFA reference
// (Config.Reference). Both are semantically identical — proved by the
// equivalence tests in internal/monitor and internal/attack.
type coreMonitor interface {
	Observe(pc uint32, w isa.Word) bool
	Reset()
	Alarmed() bool
	AlarmPC() uint32
	Counters() (checked, alarms uint64, maxPositions int)
}

// preparedApp is a fully built installation image: core with loaded program,
// compiled monitor, wired tracer, and hash unit. Building one is the
// expensive, fallible half of an installation; making it live is a pointer
// swap. Both the live slot contents and the staged/retained shadow slots are
// preparedApps.
type preparedApp struct {
	core    *apps.Core
	mon     coreMonitor
	tracer  *cpu.Tracer
	hasher  mhash.Hasher
	appName string
	param   uint32
}

// coreSlot is one core with its security hardware.
type coreSlot struct {
	// mu serializes the packet path against install/commit/rollback swaps:
	// a cutover acquires the lock and therefore waits for the in-flight
	// packet to retire — the "per-core drain" that makes commits atomic at
	// packet boundaries. Uncontended in steady state and allocation-free.
	mu      sync.Mutex
	core    *apps.Core
	mon     coreMonitor
	tracer  *cpu.Tracer
	hasher  mhash.Hasher
	appName string
	param   uint32
	loaded  bool
	// resetTrace defers the forensic-trace wipe of the recovery sequence
	// to the core's next packet, keeping the dump readable between an
	// alarm and that packet (the window npsim -forensic uses).
	resetTrace bool
	// ring and cyc are this core's telemetry hooks (nil when the NP has no
	// collector): the lifecycle event ring and the per-packet cycle
	// histogram. Both are allocation-free to write.
	ring *obs.EventRing
	cyc  *obs.Histogram
	// sup is the per-core health tracker (see supervisor.go).
	sup supState
	// staged is the shadow slot of the two-phase install (see upgrade.go):
	// a prepared bundle awaiting Commit while the live slot keeps serving.
	staged *preparedApp
	// prev is the retained previous version after a Commit, restored by
	// Rollback.
	prev *preparedApp
}

// liveImage captures the current live installation as a preparedApp (for
// retention at commit time). Call with mu held.
func (s *coreSlot) liveImage() *preparedApp {
	return &preparedApp{core: s.core, mon: s.mon, tracer: s.tracer,
		hasher: s.hasher, appName: s.appName, param: s.param}
}

// setLive makes a prepared image the slot's live installation. Call with mu
// held.
func (s *coreSlot) setLive(p *preparedApp) {
	s.core = p.core
	s.mon = p.mon
	s.tracer = p.tracer
	s.hasher = p.hasher
	s.appName = p.appName
	s.param = p.param
	s.loaded = true
	s.resetTrace = false
}

// Config configures an NP instance.
type Config struct {
	// Cores is the number of processing cores (the prototype has one; the
	// architecture targets many, §1 "Dynamics").
	Cores int
	// MonitorsEnabled disconnects the monitors when false (the insecure
	// baseline for comparison benches).
	MonitorsEnabled bool
	// NewHasher builds the per-installation hash unit from a parameter.
	// Defaults to the paper's 4-bit sum-compression Merkle tree.
	NewHasher func(param uint32) mhash.Hasher
	// TraceDepth, when > 0, keeps a per-core forensic ring of the last N
	// retired instructions (with the alarm instruction flagged).
	TraceDepth int
	// Reference selects the pre-optimization monitoring path: the
	// map-based NFA monitor stepping an uncached hash unit. The default
	// (false) is the allocation-free fast path — flattened PackedMonitor
	// transitions plus a word-keyed FastHasher. The two are semantically
	// identical; Reference is the oracle that the benchmark's verdict
	// check and the equivalence suites compare the fast path against.
	Reference bool
	// HashCacheBits sizes the per-core instruction-hash cache as log2 of
	// the entry count; 0 selects mhash.DefaultFastCacheBits. Ignored when
	// Reference is set.
	HashCacheBits int
	// Supervisor enables the per-core health tracker (quarantine on
	// persistent alarms/faults, probation after re-install). The zero
	// value disables it.
	Supervisor SupervisorConfig
	// Obs attaches a telemetry collector: per-core lifecycle event rings,
	// aggregate outcome counters, per-core cycle histograms, and the batch
	// latency distribution. Nil disables all hooks at zero cost (the
	// packet path stays allocation-free either way).
	Obs *obs.Collector
	// Instance, when non-empty, is folded into every registered metric
	// name as an `np="<instance>"` label. Two NPs sharing one Collector
	// MUST set distinct instances, or they publish into the same series
	// (`np_packet_cycles{core="0"}` names the same histogram on both).
	// Empty keeps the historical unlabeled names for single-NP collectors.
	Instance string
}

// NP is a multicore network processor.
type NP struct {
	// whole is the view over every core (domain.go): the NP's own
	// install, upgrade, quarantine, health, stats and drain operations
	// are its methods.
	whole

	cfg     Config
	slots   []*coreSlot
	next    int // round-robin dispatch pointer
	stats   Stats
	library map[string]*residentApp // verified bundles kept in memory

	// statsMu guards the aggregate stats and the per-domain accounts:
	// ProcessOn and the ProcessBatch merge write through mergeStats and
	// mergeDeltas while Stats() snapshots concurrently.
	statsMu sync.Mutex

	// domains is the current protection-domain partition (see domain.go),
	// swapped by SetDomains under batchMu and statsMu.
	domains atomic.Pointer[partition]

	// Telemetry hooks (all nil without Config.Obs): aggregate outcome
	// counters mirrored from the stats merge, lifecycle counters from the
	// install/upgrade paths, and the batch latency histogram.
	mProcessed, mForwarded, mDropped *obs.Counter
	mAlarms, mFaults, mWatchdog      *obs.Counter
	mQuarantines                     *obs.Counter
	mInstalls, mStages, mCommits     *obs.Counter
	mRollbacks, mAborts              *obs.Counter
	batchLat                         *obs.Histogram

	// Reused ProcessBatch scratch (see batch.go): packet-copy arena,
	// per-result offsets, per-core stat deltas. Amortizes batch setup to
	// zero allocations in steady state. batchMu serializes batch entry so
	// the scratch is single-owner even when a management-plane caller
	// (e.g. a rollout's health sample) batches against an NP whose shard
	// worker is draining it concurrently.
	batchMu sync.Mutex
	arena   []byte
	offs    []int
	deltas  []Stats
}

// New builds an NP.
func New(cfg Config) (*NP, error) {
	if cfg.Cores < 1 {
		return nil, fmt.Errorf("npu: %d cores", cfg.Cores)
	}
	if cfg.NewHasher == nil {
		cfg.NewHasher = func(p uint32) mhash.Hasher { return mhash.NewMerkle(p) }
	}
	np := &NP{cfg: cfg, slots: make([]*coreSlot, cfg.Cores)}
	np.whole = Domain{np: np, cores: make([]int, cfg.Cores)}
	for i := range np.slots {
		np.slots[i] = &coreSlot{sup: newSupState(cfg.Supervisor)}
		np.whole.cores[i] = i
	}
	part, _ := np.newPartition(nil) // no specs, nothing to reject
	np.domains.Store(part)
	if cfg.Obs != nil {
		reg := cfg.Obs.Registry()
		// With Config.Instance set, every name carries an np="…" label so
		// two NPs sharing a Collector keep disjoint series; empty Instance
		// reproduces the historical unlabeled names exactly.
		name := func(base string) string { return obs.Labeled(base, "np", cfg.Instance) }
		np.mProcessed = reg.Counter(name("np_packets_processed_total"))
		np.mForwarded = reg.Counter(name("np_packets_forwarded_total"))
		np.mDropped = reg.Counter(name("np_packets_dropped_total"))
		np.mAlarms = reg.Counter(name("np_alarms_total"))
		np.mFaults = reg.Counter(name("np_faults_total"))
		np.mWatchdog = reg.Counter(name("np_watchdog_trips_total"))
		np.mQuarantines = reg.Counter(name("np_quarantines_total"))
		np.mInstalls = reg.Counter(name("np_installs_total"))
		np.mStages = reg.Counter(name("np_stages_total"))
		np.mCommits = reg.Counter(name("np_commits_total"))
		np.mRollbacks = reg.Counter(name("np_rollbacks_total"))
		np.mAborts = reg.Counter(name("np_aborts_total"))
		np.batchLat = reg.Histogram(name("np_batch_seconds"), obs.LatencyBuckets)
		for i, slot := range np.slots {
			slot.ring = cfg.Obs.Ring(i)
			slot.cyc = reg.Histogram(
				obs.Labeled("np_packet_cycles", "np", cfg.Instance, "core", fmt.Sprintf("%d", i)),
				obs.CycleBuckets)
		}
	}
	return np, nil
}

// Instance reports the obs label configured for this NP ("" when unset).
func (np *NP) Instance() string { return np.cfg.Instance }

// Cores returns the core count.
func (np *NP) Cores() int { return len(np.slots) }

// CycleHistogram returns core's per-packet simulated-cycle histogram (the
// np_packet_cycles series), or nil when the NP has no collector or core is
// out of range.
func (np *NP) CycleHistogram(core int) *obs.Histogram {
	if core < 0 || core >= len(np.slots) {
		return nil
	}
	return np.slots[core].cyc
}

// HasherFor builds a hash unit for a parameter using this NP's configured
// hash family; the operator-side graph extraction must use the same family.
func (np *NP) HasherFor(param uint32) mhash.Hasher { return np.cfg.NewHasher(param) }

// Stats returns a copy of the view's statistics: for the whole NP the
// aggregate, for a domain the outcomes of exactly the packets that ran on
// its cores since its partition was installed, and zero for a stale view
// (see Err). Safe to call concurrently with Process/ProcessOn/ProcessBatch:
// the copy is taken under the stats mutex, so it is always a consistent
// snapshot, never a torn read of counters mid-merge.
func (d *Domain) Stats() Stats {
	np := d.np
	np.statsMu.Lock()
	defer np.statsMu.Unlock()
	switch {
	case d.part == nil:
		return np.stats
	case np.domains.Load() != d.part:
		return Stats{}
	}
	return d.part.stats[d.idx]
}

// mergeStats folds one core's per-call delta into the aggregate and that
// core's domain account under the stats mutex, then mirrors the delta
// into the telemetry counters (nil-safe no-ops without a collector). The
// delta is computed lock-free on the packet path; only the fold
// serializes.
func (np *NP) mergeStats(d *Stats, coreID int) {
	np.statsMu.Lock()
	np.stats.add(d)
	p := np.domains.Load()
	p.stats[p.slotDomain[coreID]].add(d)
	np.statsMu.Unlock()
	np.mirrorStats(d)
}

// mergeDeltas folds the batch engine's per-core deltas into the aggregate
// and each core's domain account in one stats-mutex acquisition, then
// mirrors the merged delta into the telemetry counters. Returns the merge.
func (np *NP) mergeDeltas(deltas []Stats) Stats {
	var merged Stats
	np.statsMu.Lock()
	p := np.domains.Load()
	for i := range deltas {
		merged.add(&deltas[i])
		p.stats[p.slotDomain[i]].add(&deltas[i])
	}
	np.stats.add(&merged)
	np.statsMu.Unlock()
	np.mirrorStats(&merged)
	return merged
}

// mirrorStats mirrors a delta into the obs counters (nil-safe).
func (np *NP) mirrorStats(d *Stats) {
	np.mProcessed.Add(d.Processed)
	np.mForwarded.Add(d.Forwarded)
	np.mDropped.Add(d.Dropped)
	np.mAlarms.Add(d.Alarms)
	np.mFaults.Add(d.Faults)
	np.mWatchdog.Add(d.WatchdogTrips)
	np.mQuarantines.Add(d.Quarantines)
}

// prepare builds a complete installation image from a verified bundle:
// deserialize binary and graph, build the hash unit, run the graph/binary
// self-check, compile the monitor, and wire the trace chain. It touches no
// slot — callers decide whether the image becomes live immediately (Install)
// or waits in a shadow slot (StageInstall).
func (np *NP) prepare(name string, binary, graph []byte, param uint32) (*preparedApp, error) {
	prog, err := asm.Deserialize(binary)
	if err != nil {
		return nil, fmt.Errorf("npu: binary: %w", err)
	}
	g, err := monitor.Deserialize(graph)
	if err != nil {
		return nil, fmt.Errorf("npu: graph: %w", err)
	}
	hasher := np.cfg.NewHasher(param)
	// Post-installation self-check: the graph must actually describe this
	// binary under this parameter (defense in depth; catches operator
	// tooling bugs, not attacks — those are stopped by the signature).
	if err := g.Validate(prog, hasher); err != nil {
		return nil, fmt.Errorf("npu: graph/binary mismatch: %w", err)
	}
	var mon coreMonitor
	if np.cfg.Reference {
		// Pre-optimization reference: map-based NFA monitor, uncached
		// hash unit.
		m, err := monitor.New(g, hasher)
		if err != nil {
			return nil, fmt.Errorf("npu: %w", err)
		}
		mon = m
	} else {
		// The per-instruction fast path: packed hardware-layout monitor
		// compiled to flat transition arrays, fed by a word-keyed
		// instruction-hash cache with concrete (non-interface) dispatch.
		packed, err := monitor.Pack(g)
		if err != nil {
			return nil, fmt.Errorf("npu: %w", err)
		}
		cacheBits := np.cfg.HashCacheBits
		if cacheBits == 0 {
			cacheBits = mhash.DefaultFastCacheBits
		}
		m, err := monitor.NewPacked(packed, mhash.NewFast(hasher, cacheBits))
		if err != nil {
			return nil, fmt.Errorf("npu: %w", err)
		}
		mon = m
	}
	p := &preparedApp{core: apps.NewCore(prog), mon: mon, hasher: hasher,
		appName: name, param: param}
	var trace cpu.TraceFunc
	if np.cfg.MonitorsEnabled {
		trace = mon.Observe
	}
	if np.cfg.TraceDepth > 0 {
		p.tracer = cpu.NewTracer(np.cfg.TraceDepth, trace)
		trace = p.tracer.Observe
	}
	p.core.Trace = trace
	return p, nil
}

// Install loads a verified bundle onto one core the view owns: the
// processing binary, the monitoring graph, and the hash parameter. This is
// the step the secure installation protocol gates; the NP itself trusts
// its caller (the control processor) to have verified the package. Install
// is destructive — the previous installation is discarded along with any
// staged or retained version; live upgrades use StageInstall/Commit
// (upgrade.go) instead.
func (d *Domain) Install(coreID int, name string, binary, graph []byte, param uint32) error {
	slot, err := d.slot(coreID)
	if err != nil {
		return err
	}
	p, err := d.np.prepare(name, binary, graph, param)
	if err != nil {
		return err
	}
	d.np.install(slot, p)
	return nil
}

// install makes a prepared image live on a slot, discarding any staged or
// retained version.
func (np *NP) install(slot *coreSlot, p *preparedApp) {
	slot.mu.Lock()
	slot.setLive(p)
	slot.staged = nil
	slot.prev = nil
	// A quarantined core re-enters dispatch on probation: the clean
	// re-install (fresh core memory, fresh monitor) is the probe step of
	// the quarantine policy.
	slot.sup.onInstall()
	slot.mu.Unlock()
	slot.ring.Emit(obs.EvInstall, 0, 0)
	np.mInstalls.Inc()
}

// TraceDump returns the core's forensic trace (last n instructions), or ""
// when tracing is disabled.
func (np *NP) TraceDump(coreID, n int) string {
	if coreID < 0 || coreID >= len(np.slots) || np.slots[coreID].tracer == nil {
		return ""
	}
	return np.slots[coreID].tracer.Dump(n)
}

// InstallAll installs the same bundle on every core the view owns,
// transactionally: every core's image is prepared and self-checked before
// any slot is mutated, so a bundle that fails validation for core N can no
// longer leave cores 0..N-1 upgraded and the rest stale. Cores outside the
// view are never touched. (Per-core preparation matters even for an
// identical bundle — the configured hash-unit factory may be stateful, as
// the fault-injection suite's flaky hashers are.)
func (d *Domain) InstallAll(name string, binary, graph []byte, param uint32) error {
	prepared, err := d.prepareAll(name, binary, graph, param)
	if err != nil {
		return err
	}
	for i, coreID := range d.cores {
		d.np.install(d.np.slots[coreID], prepared[i])
	}
	return nil
}

// AppOn reports the application installed on a core.
func (np *NP) AppOn(coreID int) (string, bool) {
	if coreID < 0 || coreID >= len(np.slots) || !np.slots[coreID].loaded {
		return "", false
	}
	return np.slots[coreID].appName, true
}

// ParamOn reports the hash parameter of the live installation on a core —
// the fleet rotation invariant ("no two routers share hash parameters")
// audits the fleet through this.
func (np *NP) ParamOn(coreID int) (uint32, bool) {
	if coreID < 0 || coreID >= len(np.slots) {
		return 0, false
	}
	slot := np.slots[coreID]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if !slot.loaded {
		return 0, false
	}
	return slot.param, true
}

// Result describes one packet's fate.
//
// Packet aliases reused storage: after Process/ProcessOn it points at the
// core's output buffer and is valid until the next packet on that core;
// after ProcessBatch it points into the NP's batch arena and is valid until
// the next ProcessBatch call. Copy it to retain it longer. This is what
// keeps the steady-state data plane allocation-free.
type Result struct {
	Core     int
	Verdict  int
	Packet   []byte
	Detected bool // monitor alarm fired (packet dropped, core reset)
	Faulted  bool // architectural exception without an alarm
	Cycles   uint64
}

// Process dispatches one packet round-robin across available (loaded,
// non-quarantined) cores.
func (np *NP) Process(pkt []byte, qdepth int) (Result, error) {
	n := len(np.slots)
	anyLoaded := false
	for i := 0; i < n; i++ {
		id := (np.next + i) % n
		s := np.slots[id]
		if !s.loaded {
			continue
		}
		anyLoaded = true
		if s.sup.quarantined {
			continue
		}
		np.next = (id + 1) % n
		return np.ProcessOn(id, pkt, qdepth)
	}
	if anyLoaded {
		return Result{}, ErrNoCoreAvailable
	}
	return Result{}, ErrNoAppInstalled
}

// ProcessOn runs one packet on a specific core. On a monitor alarm the
// paper's recovery applies: the attack packet is dropped, core and monitor
// reset, processing continues.
func (np *NP) ProcessOn(coreID int, pkt []byte, qdepth int) (Result, error) {
	if coreID < 0 || coreID >= len(np.slots) || !np.slots[coreID].loaded {
		return Result{}, fmt.Errorf("npu: core %d not loaded", coreID)
	}
	if np.slots[coreID].sup.quarantined {
		return Result{}, fmt.Errorf("npu: core %d: %w", coreID, ErrCoreQuarantined)
	}
	// Accumulate into a stack-local delta and fold it in under the stats
	// mutex: Stats() readers and ProcessOn calls on other cores never race
	// on the aggregate, and the packet path stays allocation-free.
	var d Stats
	res, err := processOnSlot(np.slots[coreID], coreID, pkt, qdepth, np.cfg.MonitorsEnabled, &d)
	if err != nil {
		return res, err
	}
	np.mergeStats(&d, coreID)
	return res, nil
}

// Core exposes a core's execution engine for diagnostics and fault
// injection (the fault suite flips bits in its instruction memory and
// shrinks its watchdog budget).
func (np *NP) Core(coreID int) (*apps.Core, error) {
	if coreID < 0 || coreID >= len(np.slots) || !np.slots[coreID].loaded {
		return nil, fmt.Errorf("npu: core %d not loaded", coreID)
	}
	return np.slots[coreID].core, nil
}

// Tracer exposes a core's forensic tracer, or nil when tracing is off.
func (np *NP) Tracer(coreID int) *cpu.Tracer {
	if coreID < 0 || coreID >= len(np.slots) {
		return nil
	}
	return np.slots[coreID].tracer
}

// Scratch exposes a core's scratch memory for persistence experiments.
func (np *NP) Scratch(coreID, off, n int) ([]byte, error) {
	if coreID < 0 || coreID >= len(np.slots) || !np.slots[coreID].loaded {
		return nil, fmt.Errorf("npu: core %d not loaded", coreID)
	}
	return np.slots[coreID].core.Scratch(off, n), nil
}

// MonitorStats reports a core's monitor counters. It takes the slot lock,
// so a read concurrent with the packet path sees counters from a packet
// boundary, never a mid-packet tear.
func (np *NP) MonitorStats(coreID int) (checked, alarms uint64, maxPositions int, err error) {
	if coreID < 0 || coreID >= len(np.slots) {
		return 0, 0, 0, fmt.Errorf("npu: core %d not loaded", coreID)
	}
	slot := np.slots[coreID]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if !slot.loaded {
		return 0, 0, 0, fmt.Errorf("npu: core %d not loaded", coreID)
	}
	checked, alarms, maxPositions = slot.mon.Counters()
	return checked, alarms, maxPositions, nil
}
