// Package shard is the multi-NP traffic plane: K independent npu.NP
// instances ("line cards") behind a flow-affinity dispatcher. The paper
// scales a single NP by adding cores; a deployed router scales further by
// adding line cards, and this package supplies the system glue that makes
// a fleet of monitored NPs look like one data plane:
//
//   - flow-affinity dispatch: packets are hashed on their 5-tuple and
//     rendezvous-hashed (highest-random-weight) onto a shard, so all
//     packets of a flow traverse one shard's FIFO queue and one NP —
//     per-flow order is preserved end to end;
//
//   - lock-free ingress: each shard's queue is a bounded MPSC ring of
//     arena-pooled packet buffers (ring.go). Submit copies the caller's
//     bytes into a pooled buffer exactly once and publishes it with two
//     atomic operations; the shard worker is the ring's single consumer
//     and parks on a sync.Cond only when the ring stays empty, so the
//     steady-state path takes no lock and allocates nothing;
//
//   - admission control: ECN-capable (ECT) arrivals past the marking
//     threshold are CE-marked (ECN-style backpressure, with the IPv4
//     header checksum incrementally fixed per RFC 1624), not-ECT arrivals
//     past the threshold are dropped in their place (RFC 3168's
//     mark-or-drop equivalence), and arrivals at a full queue tail-drop —
//     counted, never silently lost;
//
//   - failover: a shard whose NP can no longer take traffic (every core
//     quarantined by the supervisor) is removed from dispatch; its queued
//     packets are shed as starved drops (the QueueSim StarvedDrops
//     convention, preserving packet conservation) and its flows rendezvous-
//     rehash onto the surviving shards. Rendezvous hashing moves only the
//     failed shard's flows; every other flow keeps its shard and its order.
//
//   - tenancy (DESIGN.md §17): with Config.Tenancy set, every shard splits
//     into per-tenant lanes — one ring, arena, admission threshold pair,
//     and counter set per (card, tenant) — and dispatch classifies each
//     packet to a tenant (flow class) before picking a shard, so a
//     tenant's flows only ever land on its own lanes and drain onto its
//     own npu protection domain (the lane's npu.Domain view). Isolation is
//     structural: tenant A flooding its lane past capacity tail-drops A's
//     packets on A's counters; B's lane, thresholds, and counters never
//     move. A lane whose domain wedges fails over alone (its flows rehash
//     to the tenant's lanes on other cards) without touching the card's
//     other tenants.
//
// Everything the plane does is observable through internal/obs: shard_*
// counters (tenant-labeled when multi-tenant), per-lane depth gauges, and
// EvBackpressure/EvFailover ring events (ring index = shard*tenants +
// tenant). Per-lane statistics are plain atomics folded by Stats(); the
// conservation invariant (Arrived == Forwarded + AppDrops + Rejected +
// TailDrops + Starved + Backlog) holds per tenant — and therefore in
// aggregate — at any instant, because every path counts a packet's arrival
// before its outcome and Stats reads outcomes before arrivals (DESIGN.md
// §16).
package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"sdmmon/internal/npu"
	"sdmmon/internal/obs"
	"sdmmon/internal/packet"
)

// FlowKeyOf hashes a wire-format packet's 5-tuple (src, dst, proto, and —
// for TCP/UDP — the port pair that starts the L4 payload) with FNV-1a.
// Malformed or short packets hash over whatever bytes exist, so every
// packet gets a stable key and the dispatcher never has to reject traffic
// the NPs are expected to inspect.
func FlowKeyOf(pkt []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	if len(pkt) < 20 {
		for _, b := range pkt {
			h = (h ^ uint64(b)) * prime
		}
		return h
	}
	for _, b := range pkt[12:20] { // src, dst
		h = (h ^ uint64(b)) * prime
	}
	proto := pkt[9]
	h = (h ^ uint64(proto)) * prime
	if proto == packet.ProtoUDP || proto == packet.ProtoTCP {
		ihl := int(pkt[0]&0xF) * 4
		if ihl >= 20 && len(pkt) >= ihl+4 {
			for _, b := range pkt[ihl : ihl+4] { // src port, dst port
				h = (h ^ uint64(b)) * prime
			}
		}
	}
	return h
}

// mix64 is the splitmix64 finalizer — the per-shard weight function of the
// rendezvous hash. It is bijective, so distinct (flow, shard) pairs never
// systematically collide.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Admission is the fate of one submitted packet at the dispatcher.
type Admission int

const (
	// AdmitQueued: accepted onto a shard's ingress queue unmodified.
	AdmitQueued Admission = iota
	// AdmitMarked: accepted, but the queue was past the marking threshold
	// and the packet now carries the CE mark.
	AdmitMarked
	// AdmitDropped: tail-dropped at a full ingress queue, or a not-ECT
	// packet dropped past the marking threshold (RFC 3168: drop where an
	// ECT packet would have been CE-marked).
	AdmitDropped
	// AdmitStarved: no healthy shard remains for the packet's tenant (or
	// the plane is closed or locked down, or the classifier refused the
	// packet); the packet was counted as a starved drop.
	AdmitStarved
)

func (a Admission) String() string {
	switch a {
	case AdmitQueued:
		return "queued"
	case AdmitMarked:
		return "marked"
	case AdmitDropped:
		return "dropped"
	case AdmitStarved:
		return "starved"
	}
	return fmt.Sprintf("admission(%d)", int(a))
}

// TenancyConfig partitions the plane among tenants. Each tenant name is an
// npu protection-domain name; every NP in Config.NPs must carry a domain
// of that name (npu.SetDomains), which is what pins a tenant's lane to its
// own cores.
type TenancyConfig struct {
	// Tenants are the protection-domain names, one per tenant, in tenant-
	// index order.
	Tenants []string
	// Classify maps a packet to its tenant index — the flow class the
	// dispatcher schedules slots by. It must be pure and safe for
	// concurrent use. A return outside [0, len(Tenants)) starves the
	// packet (counted, never silently lost, and never admitted to any
	// tenant's lane).
	Classify func(pkt []byte) int
}

// Config describes a plane.
type Config struct {
	// NPs are the line cards, one per shard, already built and installed.
	// The plane owns their traffic from NewPlane until Close: nothing else
	// may call Process/ProcessBatch on them concurrently.
	NPs []*npu.NP
	// QueueCapacity bounds each lane's ingress queue; arrivals beyond it
	// tail-drop. The backing ring is sized to the next power of two, so
	// the physical bound can sit slightly above this soft bound; admission
	// enforces the soft bound and the ring enforces the hard one.
	QueueCapacity int
	// MarkThreshold is the queue depth at which admission starts CE-marking
	// arrivals; 0 selects QueueCapacity/2. Setting it equal to
	// QueueCapacity disables marking (the depth never reaches it without
	// tail-dropping instead).
	MarkThreshold int
	// BatchSize caps how many packets a shard worker drains per
	// ProcessBatch call; 0 selects 64.
	BatchSize int
	// Obs receives shard_* counters (tenant-labeled when multi-tenant),
	// per-lane depth gauges, and dispatch ring events (ring index =
	// shard*tenants + tenant). Give the plane a collector of its own when
	// the NPs also publish per-core rings, or the indexes overlap. Nil
	// disables telemetry.
	Obs *obs.Collector
	// Tenancy, when non-nil with more than one tenant, splits every shard
	// into per-tenant lanes dispatched by Classify, each draining through
	// its tenant's npu domain view. Nil (or one tenant) keeps the
	// single-tenant plane: one lane per card draining through the NP's
	// whole-NP view (npu.NP.Whole), unlabeled metric names. A lane whose
	// view goes stale (its card repartitioned under the plane) is refused
	// every batch with npu.ErrUnknownDomain and fails over.
	Tenancy *TenancyConfig
	// Stepped builds a plane with no drain workers: nothing drains until
	// the caller runs Step, and Close drains the backlog synchronously.
	// Deterministic callers (the campaign families and the model benches)
	// use it, so every batch sees a queue depth fixed by their schedule.
	// Submissions and Steps must then come from one goroutine.
	Stepped bool
}

// tenantLane is one (card, tenant) pair: the tenant's lock-free ingress
// ring on this card, the arena its packet buffers recycle through, its
// admission thresholds, and its full counter set. All statistics are
// atomics — producers and the drain worker never share a lock. Structural
// isolation lives here: nothing another tenant does can move these
// numbers, because no code path touches a lane without first classifying
// the packet (or the management call) to this tenant.
type tenantLane struct {
	tenant int
	// view is the npu view this lane drains onto and probes the health
	// of: the tenant's protection domain, or the whole NP on a
	// single-tenant plane.
	view  *npu.Domain
	ring  *obs.EventRing
	depth *obs.Gauge

	queue *bufRing
	pool  *arena

	// dead marks this lane failed (its domain wedged, or
	// FailTenantShard): the dispatcher skips it, the worker sweeps it.
	// Cleared never — like a card's alive bit, a dead lane stays dead.
	dead atomic.Bool
	// backpressure is the marking edge state for EvBackpressure (set by
	// the first producer past the threshold, cleared by the worker when
	// the queue drains below it).
	backpressure atomic.Bool

	// Per-lane admission thresholds. Seeded from the plane defaults;
	// runtime response logic (internal/threat, per-tenant responders)
	// tightens and restores them via SetAdmission/SetTenantAdmission
	// without stalling producers.
	capacity atomic.Int64
	markAt   atomic.Int64

	// Producer-side tallies. Writers count arrived before the outcome;
	// Stats reads outcomes before arrived, which keeps the derived
	// backlog non-negative and conservation exact at any instant.
	arrived   atomic.Uint64
	tailDrops atomic.Uint64
	marked    atomic.Uint64
	maxDepth  atomic.Int64

	// Worker-side tallies. inflight is the size of the batch the worker
	// has dequeued but not yet handed back to the arena; the depth gauge
	// folds it in so a scrape mid-drain agrees with Stats().Backlog.
	starved   atomic.Uint64
	processed atomic.Uint64
	forwarded atomic.Uint64
	appDrops  atomic.Uint64
	rejected  atomic.Uint64
	alarms    atomic.Uint64
	faults    atomic.Uint64
	ecnMarked atomic.Uint64
	cycles    atomic.Uint64
	inflight  atomic.Int64
}

// lineCard is one shard: an NP's per-tenant lanes (each holding its view
// of the NP) and the worker state draining them. The mutex below exists
// only as the worker's parking lot.
type lineCard struct {
	id    int
	salt  uint64
	lanes []*tenantLane

	// alive is the dispatcher's view; cleared exactly once by failCard,
	// so a cleared bit means the re-pick loop skips this shard forever.
	alive  atomic.Bool
	failed atomic.Bool
	closed atomic.Bool

	// producers counts submitters inside their publish window (between
	// the failed/closed check and the ring enqueue). The worker sheds a
	// failed or closing card's rings for the last time only once this is
	// zero, so no packet can be published into a ring nobody will drain.
	producers atomic.Int64
	// parked is the Dekker-style handshake with the worker's parking lot:
	// the worker sets it and re-checks the rings; producers publish and
	// then check it. Sequentially consistent atomics guarantee one side
	// sees the other, so a missed wakeup is impossible.
	parked atomic.Bool

	batches atomic.Uint64
	// shed is set once a stepped plane's card has failed over and shed its
	// rings (the worker of a concurrent plane exits at that point instead).
	shed bool

	mu   sync.Mutex // parking lot
	cond *sync.Cond
}

// anyQueued reports whether any lane (dead or not) holds packets.
func (lc *lineCard) anyQueued() bool {
	for _, lane := range lc.lanes {
		if !lane.queue.Empty() {
			return true
		}
	}
	return false
}

// allEmpty reports whether every lane's ring is empty.
func (lc *lineCard) allEmpty() bool { return !lc.anyQueued() }

// allDead reports whether every lane has failed.
func (lc *lineCard) allDead() bool {
	for _, lane := range lc.lanes {
		if !lane.dead.Load() {
			return false
		}
	}
	return true
}

// park blocks the worker until traffic, failure or close. See the parked
// field: the flag is published before the final emptiness re-check, so a
// producer that enqueued concurrently either sees the flag (and wakes us)
// or its packet is seen by the re-check.
func (lc *lineCard) park() {
	lc.parked.Store(true)
	if lc.anyQueued() || lc.closed.Load() || lc.failed.Load() {
		lc.parked.Store(false)
		return
	}
	lc.mu.Lock()
	for lc.parked.Load() && !lc.anyQueued() && !lc.closed.Load() && !lc.failed.Load() {
		lc.cond.Wait()
	}
	lc.parked.Store(false)
	lc.mu.Unlock()
}

// wake unparks the worker. Producers call it only after observing the
// parked flag, so the steady-state submit path pays one atomic load here,
// never a lock.
func (lc *lineCard) wake() {
	lc.mu.Lock()
	lc.parked.Store(false)
	lc.cond.Broadcast()
	lc.mu.Unlock()
}

// Plane is the sharded traffic plane.
type Plane struct {
	cards     []*lineCard
	tenants   []string
	classify  func(pkt []byte) int
	capacity  int
	markAt    int
	batchSize int
	// stepped planes have no workers; Step drains through one buffer.
	stepped   bool
	stepBatch [][]byte
	stepBufs  []*pbuf
	wg        sync.WaitGroup
	closed    atomic.Bool
	lockdown  atomic.Bool
	tlock     []atomic.Bool // per-tenant lockdown

	// drainHook, when non-nil (tests only; set before traffic), runs on a
	// worker between dequeuing a batch and handing it to the NP. pkts is
	// the dequeued batch; the slices are only valid until the hook returns.
	drainHook func(shard int, pkts [][]byte)

	// starvedSubmit counts, per tenant, submissions starved before
	// reaching any card (plane closed, lockdown, tenant lockdown, or no
	// healthy lane); starvedUnclass counts submissions the classifier
	// refused — attributable to no tenant, they enter only the plane
	// aggregate.
	starvedSubmit  []atomic.Uint64
	starvedUnclass atomic.Uint64
	failovers      atomic.Uint64

	cArrived, cTailDrops, cMarked *obs.Counter
	cStarved, cFailovers          *obs.Counter
	cForwarded, cAppDrops         *obs.Counter

	// Per-tenant labeled counters (`shard_arrived_total{tenant="a"}` …),
	// registered only when multi-tenant; entries stay nil (no-op)
	// otherwise, so the single-tenant plane keeps exactly its historical
	// series. The leakage test drives one tenant's traffic and requires
	// every other tenant's labeled series to stay byte-identical.
	tcArrived, tcTailDrops, tcMarked []*obs.Counter
	tcStarved, tcForwarded           []*obs.Counter
	tcAppDrops                       []*obs.Counter
}

// NewPlane builds the plane and starts one drain worker per shard (none
// when Config.Stepped is set).
func NewPlane(cfg Config) (*Plane, error) {
	if len(cfg.NPs) == 0 {
		return nil, fmt.Errorf("shard: plane needs at least one NP")
	}
	if cfg.QueueCapacity < 1 {
		return nil, fmt.Errorf("shard: queue capacity %d must be >= 1", cfg.QueueCapacity)
	}
	markAt := cfg.MarkThreshold
	if markAt == 0 {
		markAt = cfg.QueueCapacity / 2
		if markAt < 1 {
			markAt = 1
		}
	}
	if markAt < 1 || markAt > cfg.QueueCapacity {
		return nil, fmt.Errorf("shard: mark threshold %d outside [1, %d]", markAt, cfg.QueueCapacity)
	}
	batch := cfg.BatchSize
	if batch == 0 {
		batch = 64
	}
	if batch < 1 {
		return nil, fmt.Errorf("shard: batch size %d must be >= 1", batch)
	}
	tenants := []string{""}
	var classify func([]byte) int
	if cfg.Tenancy != nil && len(cfg.Tenancy.Tenants) > 0 {
		tenants = append([]string(nil), cfg.Tenancy.Tenants...)
		classify = cfg.Tenancy.Classify
		if len(tenants) > 1 && classify == nil {
			return nil, fmt.Errorf("shard: %d tenants need a Classify function", len(tenants))
		}
		seen := map[string]bool{}
		for t, name := range tenants {
			if name == "" {
				return nil, fmt.Errorf("shard: tenant %d has an empty domain name", t)
			}
			if seen[name] {
				return nil, fmt.Errorf("shard: duplicate tenant %q", name)
			}
			seen[name] = true
		}
	}
	numT := len(tenants)
	reg := cfg.Obs.Registry()
	p := &Plane{
		tenants:       tenants,
		classify:      classify,
		capacity:      cfg.QueueCapacity,
		markAt:        markAt,
		batchSize:     batch,
		stepped:       cfg.Stepped,
		tlock:         make([]atomic.Bool, numT),
		starvedSubmit: make([]atomic.Uint64, numT),
		cArrived:      reg.Counter("shard_arrived_total"),
		cTailDrops:    reg.Counter("shard_tail_drops_total"),
		cMarked:       reg.Counter("shard_marked_total"),
		cStarved:      reg.Counter("shard_starved_drops_total"),
		cFailovers:    reg.Counter("shard_failovers_total"),
		cForwarded:    reg.Counter("shard_forwarded_total"),
		cAppDrops:     reg.Counter("shard_app_drops_total"),
		tcArrived:     make([]*obs.Counter, numT),
		tcTailDrops:   make([]*obs.Counter, numT),
		tcMarked:      make([]*obs.Counter, numT),
		tcStarved:     make([]*obs.Counter, numT),
		tcForwarded:   make([]*obs.Counter, numT),
		tcAppDrops:    make([]*obs.Counter, numT),
	}
	if numT > 1 {
		for t, name := range tenants {
			p.tcArrived[t] = reg.Counter(obs.Labeled("shard_arrived_total", "tenant", name))
			p.tcTailDrops[t] = reg.Counter(obs.Labeled("shard_tail_drops_total", "tenant", name))
			p.tcMarked[t] = reg.Counter(obs.Labeled("shard_marked_total", "tenant", name))
			p.tcStarved[t] = reg.Counter(obs.Labeled("shard_starved_drops_total", "tenant", name))
			p.tcForwarded[t] = reg.Counter(obs.Labeled("shard_forwarded_total", "tenant", name))
			p.tcAppDrops[t] = reg.Counter(obs.Labeled("shard_app_drops_total", "tenant", name))
		}
	}
	for i, np := range cfg.NPs {
		if np == nil {
			return nil, fmt.Errorf("shard: NP %d is nil", i)
		}
		lc := &lineCard{
			id: i,
			// Golden-ratio stride keeps shard salts well separated; mix64
			// in the weight function does the rest.
			salt: mix64(uint64(i)*0x9E3779B97F4A7C15 + 1),
		}
		for t, name := range tenants {
			tlabel := ""
			view := np.Whole()
			if numT > 1 {
				// Every tenant must own a protection domain on every card,
				// or its flows would have nowhere to run when they land
				// there.
				tlabel = name
				var err error
				if view, err = np.Domain(name); err != nil {
					return nil, fmt.Errorf("shard: NP %d: %w", i, err)
				}
			}
			lane := &tenantLane{
				tenant: t,
				view:   view,
				ring:   cfg.Obs.Ring(i*numT + t),
				depth: reg.Gauge(obs.Labeled("shard_queue_depth",
					"shard", strconv.Itoa(i), "tenant", tlabel)),
			}
			lane.queue = newBufRing(cfg.QueueCapacity)
			lane.pool = newArena(lane.queue.Cap(), batch)
			lane.capacity.Store(int64(cfg.QueueCapacity))
			lane.markAt.Store(int64(markAt))
			lc.lanes = append(lc.lanes, lane)
		}
		lc.cond = sync.NewCond(&lc.mu)
		lc.alive.Store(true)
		p.cards = append(p.cards, lc)
	}
	if p.stepped {
		p.stepBatch, p.stepBufs = make([][]byte, batch), make([]*pbuf, batch)
		return p, nil
	}
	for _, lc := range p.cards {
		p.wg.Add(1)
		go p.worker(lc)
	}
	return p, nil
}

// Shards reports the number of line cards (healthy or not).
func (p *Plane) Shards() int { return len(p.cards) }

// tenantOf classifies a packet. -1 means the classifier refused it.
func (p *Plane) tenantOf(pkt []byte) int {
	if p.classify == nil || len(p.tenants) == 1 {
		return 0
	}
	t := p.classify(pkt)
	if t < 0 || t >= len(p.tenants) {
		return -1
	}
	return t
}

// ShardFor reports which shard the dispatcher would pick for a flow key of
// tenant 0 right now — the rendezvous argmax over the shards currently
// healthy for that tenant, the same choice Submit makes. -1 when no shard
// is healthy. Multi-tenant callers want ShardForTenant.
func (p *Plane) ShardFor(key uint64) int { return p.ShardForTenant(key, 0) }

// ShardForTenant is ShardFor for one tenant's flows: cards whose lane for
// this tenant has failed are skipped even while the card itself stays
// alive for other tenants.
func (p *Plane) ShardForTenant(key uint64, tenant int) int {
	if tenant < 0 || tenant >= len(p.tenants) {
		return -1
	}
	best := -1
	var bestW uint64
	for i, lc := range p.cards {
		if !lc.alive.Load() || lc.lanes[tenant].dead.Load() {
			continue
		}
		w := mix64(key ^ lc.salt)
		if best < 0 || w > bestW {
			best, bestW = i, w
		}
	}
	return best
}

// ecnField reads a wire-format packet's ECN codepoint (RFC 3168: 0 =
// not-ECT, 1 = ECT(1), 2 = ECT(0), 3 = CE), or -1 for anything that is not
// a parseable IPv4 header.
func ecnField(pkt []byte) int {
	if len(pkt) < 20 || pkt[0]>>4 != 4 {
		return -1
	}
	return int(pkt[1] & 0x3)
}

// markCE sets the ECN CE codepoint on a wire-format IPv4 packet and
// incrementally updates the header checksum (RFC 1624: HC' = ~(~HC + ~m +
// m')), so a marked packet stays verifiable. Reports whether the packet
// was modified. Only ECN-capable packets — ECT(0)/ECT(1) — are marked:
// RFC 3168 §5 forbids setting CE on not-ECT traffic (already-CE and
// non-IPv4 packets are also left alone).
func markCE(pkt []byte) bool {
	switch ecnField(pkt) {
	case 0x1, 0x2: // ECT(1)/ECT(0): markable
	default: // not-ECT, already-CE, or not IPv4
		return false
	}
	old := binary.BigEndian.Uint16(pkt[0:2])
	pkt[1] |= 0x3
	m := binary.BigEndian.Uint16(pkt[0:2])
	hc := binary.BigEndian.Uint16(pkt[10:12])
	sum := uint32(^hc) + uint32(^old) + uint32(m)
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	binary.BigEndian.PutUint16(pkt[10:12], ^uint16(sum))
	return true
}

// starveTenant accounts one pre-card starved submission for a tenant.
func (p *Plane) starveTenant(t int) {
	p.starvedSubmit[t].Add(1)
	p.cStarved.Inc()
	p.tcStarved[t].Inc()
}

// Submit dispatches one packet. The plane copies pkt into a pooled buffer
// at admission (CE-marking mutates the copy, never the caller's bytes),
// so the caller keeps ownership of pkt and may reuse it immediately.
// Every submission is accounted under exactly one Admission outcome —
// and, once classified, under exactly one tenant — which is what makes
// the plane's per-tenant conservation invariant checkable.
func (p *Plane) Submit(pkt []byte) Admission {
	p.cArrived.Inc()
	// Classification comes first: even a submission the closed/lockdown
	// gate starves must be attributed to its tenant, or the per-tenant
	// conservation invariant would not survive a concurrent Close.
	t := p.tenantOf(pkt)
	if t < 0 {
		p.starvedUnclass.Add(1)
		p.cStarved.Inc()
		return AdmitStarved
	}
	p.tcArrived[t].Inc()
	if p.closed.Load() || p.lockdown.Load() || p.tlock[t].Load() {
		p.starveTenant(t)
		return AdmitStarved
	}
	adm, _ := p.dispatch(FlowKeyOf(pkt), t, pkt, -1)
	return adm
}

// BatchAdmission tallies the fates of one SubmitBatch call.
type BatchAdmission struct {
	Queued  int
	Marked  int
	Dropped int
	Starved int
}

// Total is the number of packets the batch accounted for.
func (b BatchAdmission) Total() int { return b.Queued + b.Marked + b.Dropped + b.Starved }

// SubmitBatch dispatches a batch of packets with the plane-level arrival
// accounting amortized to one atomic add and the rendezvous choice cached
// across consecutive same-flow packets (flows are bursty: a batch emitted
// by network.FlowGenerator.NextBatch, or any real capture, carries runs
// of one flow). Per-packet semantics are identical to Submit.
func (p *Plane) SubmitBatch(pkts [][]byte) BatchAdmission {
	var out BatchAdmission
	if len(pkts) == 0 {
		return out
	}
	p.cArrived.Add(uint64(len(pkts)))
	lastKey := uint64(0)
	lastTenant := -1
	lastCard := -1
	for _, pkt := range pkts {
		t := p.tenantOf(pkt)
		if t < 0 {
			p.starvedUnclass.Add(1)
			p.cStarved.Inc()
			out.Starved++
			continue
		}
		p.tcArrived[t].Inc()
		if p.closed.Load() || p.lockdown.Load() || p.tlock[t].Load() {
			p.starveTenant(t)
			out.Starved++
			continue
		}
		key := FlowKeyOf(pkt)
		hint := -1
		if lastCard >= 0 && key == lastKey && t == lastTenant {
			// Same flow as the previous packet: the rendezvous argmax is
			// deterministic in (key, tenant, healthy-lane set), lanes and
			// cards never return to health, and dispatch re-validates the
			// hint against both the card's alive bit and the lane's dead
			// bit — so the cache can never misroute, only save the weight
			// scan.
			hint = lastCard
		}
		adm, id := p.dispatch(key, t, pkt, hint)
		lastKey, lastTenant, lastCard = key, t, id
		switch adm {
		case AdmitQueued:
			out.Queued++
		case AdmitMarked:
			out.Marked++
		case AdmitDropped:
			out.Dropped++
		case AdmitStarved:
			out.Starved++
		}
	}
	return out
}

// dispatch runs the re-pick loop: pick a shard for the tenant's flow
// (honoring a hint whose card is alive and whose lane is not dead), try to
// admit, and on refusal — the card failed, the lane died, or the plane
// began closing between the pick and the publish — re-check the plane
// gates and pick again. Refusal moves no counters, so a retried packet is
// counted arrived on exactly one lane and the per-lane tallies always sum
// to the plane-level arrival count. Returns the admitting card's index
// (-1 when starved).
func (p *Plane) dispatch(key uint64, tenant int, pkt []byte, hint int) (Admission, int) {
	for {
		// Re-checked every iteration, not just at entry: Close sets each
		// shard's closed flag without clearing its alive bit (only
		// failover does that), so a submission racing Close would
		// otherwise re-pick the same closed-but-alive shard forever.
		if p.closed.Load() || p.lockdown.Load() || p.tlock[tenant].Load() {
			p.starveTenant(tenant)
			return AdmitStarved, -1
		}
		id := hint
		hint = -1
		if id < 0 || !p.cards[id].alive.Load() || p.cards[id].lanes[tenant].dead.Load() {
			id = p.ShardForTenant(key, tenant)
		}
		if id < 0 {
			p.starveTenant(tenant)
			return AdmitStarved, -1
		}
		if adm, ok := p.admit(p.cards[id], p.cards[id].lanes[tenant], pkt); ok {
			return adm, id
		}
	}
}

// admit runs one packet through a lane's admission control and, on
// acceptance, publishes a pooled copy onto the lane's ingress ring. ok ==
// false means the lane refused to consider the packet (its card failed,
// the lane died, or the plane is closing) and the caller must re-pick; no
// accounting moved in that case. The outcome of an accepted packet is
// decided and fully published before admit returns, and its arrival is
// counted before its outcome.
func (p *Plane) admit(lc *lineCard, lane *tenantLane, pkt []byte) (Admission, bool) {
	// Producer registration: the worker sheds a failed or closing card's
	// rings for the last time only once producers reaches zero, so a
	// submitter past this point can never strand a packet on a ring.
	lc.producers.Add(1)
	defer lc.producers.Add(-1)
	if lc.failed.Load() || lc.closed.Load() || lane.dead.Load() {
		return 0, false
	}
	lane.arrived.Add(1)
	depth := lane.queue.Len()
	if depth >= int(lane.capacity.Load()) {
		lane.tailDrops.Add(1)
		p.cTailDrops.Inc()
		p.tcTailDrops[lane.tenant].Inc()
		return AdmitDropped, true
	}
	mark := false
	if depth >= int(lane.markAt.Load()) {
		if lane.backpressure.CompareAndSwap(false, true) {
			lane.ring.Emit(obs.EvBackpressure, uint32(lane.tenant), uint64(depth))
		}
		switch ecnField(pkt) {
		case 0x1, 0x2: // ECT: carry the congestion signal in-band
			mark = true
		case 0x3:
			// Already CE — the signal is on the wire; admit unmodified.
		default:
			// Not-ECT (or not IPv4): RFC 3168 §5 requires dropping where
			// an ECT packet would be marked. Accounted with the tail
			// drops so conservation stays a single invariant.
			lane.tailDrops.Add(1)
			p.cTailDrops.Inc()
			p.tcTailDrops[lane.tenant].Inc()
			return AdmitDropped, true
		}
	}
	b := lane.pool.Get()
	b.data = append(b.data[:0], pkt...)
	if mark {
		markCE(b.data)
	}
	if !lane.queue.Enqueue(b) {
		// Physically full: producers raced past the soft depth check.
		// (SetAdmission clamps the soft capacity to the built ring, so
		// this is only ever the publish race, not a standing
		// misconfiguration.) Same fate as the soft check — a counted
		// tail drop.
		lane.pool.Put(b)
		lane.tailDrops.Add(1)
		p.cTailDrops.Inc()
		p.tcTailDrops[lane.tenant].Inc()
		return AdmitDropped, true
	}
	d := lane.queue.Len()
	for {
		cur := lane.maxDepth.Load()
		if int64(d) <= cur || lane.maxDepth.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
	lane.depth.Set(float64(d + int(lane.inflight.Load())))
	if lc.parked.Load() {
		lc.wake()
	}
	if mark {
		lane.marked.Add(1)
		p.cMarked.Inc()
		p.tcMarked[lane.tenant].Inc()
		return AdmitMarked, true
	}
	return AdmitQueued, true
}

// sweepLane drains a dead lane's ring as starved drops. Worker-only: the
// worker is every lane ring's single consumer.
func (p *Plane) sweepLane(lane *tenantLane) uint64 {
	shed := uint64(0)
	for {
		b := lane.queue.Dequeue()
		if b == nil {
			break
		}
		lane.pool.Put(b)
		shed++
	}
	if shed > 0 {
		lane.starved.Add(shed)
		p.cStarved.Add(shed)
		p.tcStarved[lane.tenant].Add(shed)
		lane.depth.Set(float64(int(lane.inflight.Load())))
	}
	return shed
}

// killLane marks a lane failed from the worker's side (its domain wedged
// mid-drain) and, on a multi-tenant card whose other lanes live on, sheds
// its backlog and emits the lane-scoped failover event. On a single-tenant
// card the caller's all-dead path takes over (failCard + shedAndExit emit
// the card-level event exactly as the pre-tenancy plane did). extra is an
// already-counted batch tail folded into the event's aux value.
func (p *Plane) killLane(lc *lineCard, lane *tenantLane, extra uint64) {
	if !lane.dead.CompareAndSwap(false, true) {
		return
	}
	if len(lc.lanes) > 1 && !lc.allDead() {
		shed := p.sweepLane(lane)
		lane.depth.Set(0)
		lane.ring.Emit(obs.EvFailover, uint32(lane.tenant), shed+extra)
	}
}

// worker drains one shard's lanes until the shard fails over or the plane
// closes (a closing worker finishes its backlog — and waits out any
// producer mid-publish — first). It is the single consumer of every lane
// ring on its card.
func (p *Plane) worker(lc *lineCard) {
	defer p.wg.Done()
	batch := make([][]byte, p.batchSize)
	bufs := make([]*pbuf, p.batchSize)
	for {
		n, done := p.drain(lc, batch, bufs, p.batchSize*len(lc.lanes), nil)
		if done {
			return
		}
		if n == 0 {
			if lc.closed.Load() {
				if lc.producers.Load() == 0 && lc.allEmpty() {
					return
				}
				// A submitter is mid-publish; its packet is about to land
				// (or it will abort on the closed flag). Yield, re-drain.
				runtime.Gosched()
				continue
			}
			lc.park()
		}
	}
}

// drain is the plane's one drain step, run by a card's worker or by Step:
// sweep dead lanes, then take one batch (at most len(batch) packets) from
// each live lane in lane order — budget packets in all — through the
// lane's npu view, account it, and fail over a lane whose view wedged and
// a card whose lanes all died. A failed card's rings are shed as starved
// drops. It returns the packets dequeued and whether the card is finished
// (failed over and shed). cycles, when non-nil, collects each batch's
// simulated cycle cost.
func (p *Plane) drain(lc *lineCard, batch [][]byte, bufs []*pbuf, budget int, cycles *[]uint64) (int, bool) {
	if lc.failed.Load() {
		p.shedAndExit(lc, 0)
		return 0, true
	}
	drained := 0
	var deadExtra uint64
	for _, lane := range lc.lanes {
		if lane.dead.Load() {
			// Stragglers published into a dead lane between sweeps are
			// swept here; the parking check covers the final race.
			p.sweepLane(lane)
			continue
		}
		n := 0
		for n < len(batch) && drained+n < budget {
			b := lane.queue.Dequeue()
			if b == nil {
				break
			}
			bufs[n] = b
			batch[n] = b.data
			n++
		}
		if n == 0 {
			continue
		}
		drained += n

		lane.inflight.Store(int64(n))
		// The gauge covers queued + in-flight from the moment of
		// dequeue, so a scrape between dequeue and accounting agrees
		// with Stats().Backlog instead of understating by the batch in
		// flight.
		lane.depth.Set(float64(lane.queue.Len() + n))
		if p.drainHook != nil {
			p.drainHook(lc.id, batch[:n])
		}
		// The congestion-management applications see the residual
		// backlog as their queue depth — the post-drain state of this
		// lane. The release hook recycles the arena buffers at the
		// earliest safe moment: the batch engine's last read of the
		// input slices.
		release := func() {
			for i := 0; i < n; i++ {
				lane.pool.Put(bufs[i])
				bufs[i] = nil
			}
		}
		out, err := lane.view.DrainBatchRelease(batch[:n], lane.queue.Len(), release)
		dead := !lane.view.Healthy() ||
			(err != nil && (errors.Is(err, npu.ErrNoCoreAvailable) || errors.Is(err, npu.ErrNoAppInstalled)))

		lc.batches.Add(1)
		lane.processed.Add(out.Processed)
		lane.forwarded.Add(out.Forwarded)
		lane.appDrops.Add(out.Dropped)
		lane.alarms.Add(out.Alarms)
		lane.faults.Add(out.Faults)
		lane.ecnMarked.Add(out.ECNMarked)
		lane.cycles.Add(out.Cycles)
		if cycles != nil {
			*cycles = append(*cycles, out.Cycles)
		}
		extra := uint64(0)
		if out.Unprocessed > 0 {
			if dead {
				// The batch tail never ran because the lane's domain
				// wedged: shed it, conservation intact.
				extra = uint64(out.Unprocessed)
				lane.starved.Add(extra)
				p.cStarved.Add(extra)
				p.tcStarved[lane.tenant].Add(extra)
			} else {
				// Rejected before execution (oversize) on a healthy NP.
				lane.rejected.Add(uint64(out.Unprocessed))
			}
		}
		lane.inflight.Store(0)
		p.cForwarded.Add(out.Forwarded)
		p.cAppDrops.Add(out.Dropped)
		p.tcForwarded[lane.tenant].Add(out.Forwarded)
		p.tcAppDrops[lane.tenant].Add(out.Dropped)
		if dead {
			deadExtra += extra
			p.killLane(lc, lane, extra)
			continue
		}
		if lane.queue.Len() < int(lane.markAt.Load()) {
			lane.backpressure.Store(false)
		}
		lane.depth.Set(float64(lane.queue.Len()))
	}
	if lc.allDead() {
		p.failCard(lc)
		p.shedAndExit(lc, deadExtra)
		return drained, true
	}
	return drained, false
}

// Step drives one card of a stepped plane (Config.Stepped): it runs drain
// rounds until budget packets have been drained or the card's lanes are
// empty, and returns the simulated cycle cost of each batch it drained, in
// drain order. The first Step after a card fails over sheds its backlog as
// starved drops. Nothing else drains a stepped plane, so a caller that
// submits and steps on a fixed schedule fixes the queue depth every batch
// sees. It is an error on a plane with drain workers.
func (p *Plane) Step(shard, budget int) ([]uint64, error) {
	if !p.stepped {
		return nil, errors.New("shard: Step on a plane with drain workers")
	}
	if shard < 0 || shard >= len(p.cards) {
		return nil, fmt.Errorf("shard: no shard %d", shard)
	}
	var cycles []uint64
	p.step(p.cards[shard], budget, &cycles)
	return cycles, nil
}

// step runs drain rounds on a stepped plane's card (see Step).
func (p *Plane) step(lc *lineCard, budget int, cycles *[]uint64) {
	for !lc.shed {
		n, done := p.drain(lc, p.stepBatch, p.stepBufs, budget, cycles)
		lc.shed = done
		budget -= n
		if n == 0 || budget <= 0 {
			return
		}
	}
}

// failCard removes a shard from dispatch. Idempotent: exactly one caller
// wins the CAS and counts the failover (synchronously, so FailShard's
// effect is immediately visible in Stats). The backlog shed happens on
// the worker — the rings' single consumer — in shedAndExit.
func (p *Plane) failCard(lc *lineCard) {
	if !lc.failed.CompareAndSwap(false, true) {
		return
	}
	lc.alive.Store(false)
	p.failovers.Add(1)
	p.cFailovers.Inc()
	lc.wake()
}

// shedAndExit is the worker's last act on a failed (or failed-while-
// closing) card: drain everything left on every lane's ring — the queued
// backlog plus anything a straggling producer publishes — as starved
// drops, then emit each lane's failover event. extra is an already-counted
// batch tail folded into the event's aux value. The producers gate
// guarantees no packet is published after the final sweep: a producer not
// yet registered when producers reads zero is ordered after that read, so
// it observes the failed/closed flag and aborts without touching any ring.
func (p *Plane) shedAndExit(lc *lineCard, extra uint64) {
	shed := make([]uint64, len(lc.lanes))
	for {
		for li, lane := range lc.lanes {
			for {
				b := lane.queue.Dequeue()
				if b == nil {
					break
				}
				lane.pool.Put(b)
				shed[li]++
			}
		}
		if lc.producers.Load() == 0 && lc.allEmpty() {
			break
		}
		runtime.Gosched()
	}
	for li, lane := range lc.lanes {
		if shed[li] > 0 {
			lane.starved.Add(shed[li])
			p.cStarved.Add(shed[li])
			p.tcStarved[lane.tenant].Add(shed[li])
		}
		lane.inflight.Store(0)
		lane.depth.Set(0)
		lane.ring.Emit(obs.EvFailover, uint32(lane.tenant), shed[li]+extra)
	}
}

// SetAdmission retunes one shard's admission thresholds at runtime — every
// lane of the shard moves together; SetTenantAdmission tunes one lane.
// Packets already queued beyond a reduced capacity are not shed — they
// drain normally; only new arrivals see the tighter limits, so packet
// conservation is untouched. A capacity above the ring built at NewPlane
// is clamped to the ring's physical size (the ring rounds QueueCapacity up
// to a power of two): admission can only enforce up to the built ring, and
// the reported Admission() value must match what is enforced, not what was
// requested. The mark threshold is clamped with it. This is the lever the
// threat engine's tighten_admission response pulls, and it never stalls
// producers: the thresholds are plain atomics.
func (p *Plane) SetAdmission(shard, capacity, markAt int) error {
	if shard < 0 || shard >= len(p.cards) {
		return fmt.Errorf("shard: no shard %d", shard)
	}
	if capacity < 1 {
		return fmt.Errorf("shard: queue capacity %d must be >= 1", capacity)
	}
	if markAt < 1 || markAt > capacity {
		return fmt.Errorf("shard: mark threshold %d outside [1, %d]", markAt, capacity)
	}
	for _, lane := range p.cards[shard].lanes {
		setLaneAdmission(lane, capacity, markAt)
	}
	return nil
}

// SetTenantAdmission retunes one lane's thresholds: the per-tenant
// admission lever a tenant-scoped responder pulls without touching any
// other tenant's lane on the same card. Clamping follows SetAdmission.
func (p *Plane) SetTenantAdmission(shard, tenant, capacity, markAt int) error {
	if shard < 0 || shard >= len(p.cards) {
		return fmt.Errorf("shard: no shard %d", shard)
	}
	if tenant < 0 || tenant >= len(p.tenants) {
		return fmt.Errorf("shard: no tenant %d", tenant)
	}
	if capacity < 1 {
		return fmt.Errorf("shard: queue capacity %d must be >= 1", capacity)
	}
	if markAt < 1 || markAt > capacity {
		return fmt.Errorf("shard: mark threshold %d outside [1, %d]", markAt, capacity)
	}
	setLaneAdmission(p.cards[shard].lanes[tenant], capacity, markAt)
	return nil
}

// setLaneAdmission stores clamped thresholds: the soft capacity never
// exceeds the built ring, so Admission() always reports exactly what the
// lane enforces (the regression pinned by TestSetAdmissionClampsToRing).
func setLaneAdmission(lane *tenantLane, capacity, markAt int) {
	if phys := lane.queue.Cap(); capacity > phys {
		capacity = phys
	}
	if markAt > capacity {
		markAt = capacity
	}
	lane.capacity.Store(int64(capacity))
	lane.markAt.Store(int64(markAt))
}

// Admission reports one shard's current admission thresholds (tenant 0's
// lane; lanes only diverge under SetTenantAdmission — use
// TenantAdmission for the per-lane values).
func (p *Plane) Admission(shard int) (capacity, markAt int, err error) {
	if shard < 0 || shard >= len(p.cards) {
		return 0, 0, fmt.Errorf("shard: no shard %d", shard)
	}
	lane := p.cards[shard].lanes[0]
	return int(lane.capacity.Load()), int(lane.markAt.Load()), nil
}

// TenantAdmission reports one lane's current admission thresholds.
func (p *Plane) TenantAdmission(shard, tenant int) (capacity, markAt int, err error) {
	if shard < 0 || shard >= len(p.cards) {
		return 0, 0, fmt.Errorf("shard: no shard %d", shard)
	}
	if tenant < 0 || tenant >= len(p.tenants) {
		return 0, 0, fmt.Errorf("shard: no tenant %d", tenant)
	}
	lane := p.cards[shard].lanes[tenant]
	return int(lane.capacity.Load()), int(lane.markAt.Load()), nil
}

// FailShard administratively removes a shard from dispatch, exactly as if
// its NP had wedged: queued packets are shed as starved drops (by the
// shard's worker, asynchronously) and the shard's flows rendezvous-rehash
// onto the survivors. Idempotent; the failover count moves before this
// returns. This is the lever the threat engine's rehash_shard response
// pulls.
func (p *Plane) FailShard(shard int) error {
	if shard < 0 || shard >= len(p.cards) {
		return fmt.Errorf("shard: no shard %d", shard)
	}
	p.failCard(p.cards[shard])
	return nil
}

// FailTenantShard removes one tenant's lane on one shard from dispatch:
// the tenant's flows there rendezvous-rehash onto its lanes on the
// surviving cards, the lane's backlog is shed as starved drops (by the
// worker, asynchronously), and every other tenant on the card is
// untouched. Idempotent. This is the per-tenant rehash lever.
func (p *Plane) FailTenantShard(shard, tenant int) error {
	if shard < 0 || shard >= len(p.cards) {
		return fmt.Errorf("shard: no shard %d", shard)
	}
	if tenant < 0 || tenant >= len(p.tenants) {
		return fmt.Errorf("shard: no tenant %d", tenant)
	}
	lc := p.cards[shard]
	lane := lc.lanes[tenant]
	if lane.dead.CompareAndSwap(false, true) {
		lane.ring.Emit(obs.EvFailover, uint32(tenant), 0)
		lc.wake() // the worker sweeps the lane's backlog
	}
	return nil
}

// Lockdown stops admitting traffic plane-wide: every later Submit is
// accounted as a starved drop while workers drain the existing backlog.
// Queued packets still complete, so conservation holds throughout. This is
// the terminal threat response; ClearLockdown re-opens admission.
func (p *Plane) Lockdown() { p.lockdown.Store(true) }

// ClearLockdown re-opens plane-wide admission after a Lockdown.
func (p *Plane) ClearLockdown() { p.lockdown.Store(false) }

// LockedDown reports whether the plane is refusing all admission.
func (p *Plane) LockedDown() bool { return p.lockdown.Load() }

// LockdownTenant stops admitting one tenant's traffic plane-wide — the
// tenant-scoped terminal response. Its queued packets still drain; every
// other tenant admits normally.
func (p *Plane) LockdownTenant(tenant int) error {
	if tenant < 0 || tenant >= len(p.tenants) {
		return fmt.Errorf("shard: no tenant %d", tenant)
	}
	p.tlock[tenant].Store(true)
	return nil
}

// ClearLockdownTenant re-opens one tenant's admission.
func (p *Plane) ClearLockdownTenant(tenant int) error {
	if tenant < 0 || tenant >= len(p.tenants) {
		return fmt.Errorf("shard: no tenant %d", tenant)
	}
	p.tlock[tenant].Store(false)
	return nil
}

// TenantLockedDown reports whether one tenant's admission is closed.
func (p *Plane) TenantLockedDown(tenant int) bool {
	if tenant < 0 || tenant >= len(p.tenants) {
		return false
	}
	return p.tlock[tenant].Load()
}

// Close stops the plane: workers finish their remaining backlog (waiting
// out producers mid-publish), then exit; a stepped plane drains its
// backlog synchronously. Submissions racing with Close are still accounted
// (as queued or starved); Submit after Close returns AdmitStarved.
func (p *Plane) Close() {
	p.closed.Store(true)
	for _, lc := range p.cards {
		lc.closed.Store(true)
		if p.stepped {
			p.step(lc, math.MaxInt, nil)
		}
		lc.wake()
	}
	p.wg.Wait()
}

// ShardStats is one line card's accounting (all lanes folded together).
type ShardStats struct {
	Shard     int
	Failed    bool
	Arrived   uint64 // dispatched to this shard (including tail drops)
	TailDrops uint64
	Marked    uint64 // CE-marked at admission
	Starved   uint64 // shed at failover (queue + unfinished batch tail)
	Processed uint64 // ran on a core
	Forwarded uint64
	AppDrops  uint64 // verdict, alarm and fault drops
	Rejected  uint64 // refused before execution on a healthy NP (oversize)
	Alarms    uint64
	Faults    uint64
	ECNMarked uint64 // forwarded packets leaving with the CE mark
	Cycles    uint64 // simulated core cycles consumed
	Batches   uint64
	MaxDepth  int // peak lane depth on this card
	Backlog   int // on the rings + in the worker's unaccounted batch at snapshot time
}

// Ledger is the packet-outcome ledger the plane keeps in aggregate and
// per tenant, with the one conservation invariant both are held to.
type Ledger struct {
	Arrived   uint64
	Forwarded uint64
	AppDrops  uint64 // verdict, alarm and fault drops
	Rejected  uint64 // refused before execution on a healthy NP (oversize)
	TailDrops uint64
	Marked    uint64 // CE-marked at admission
	Starved   uint64 // failover sheds + submissions with no healthy shard
	ECNMarked uint64 // forwarded packets leaving with the CE mark
	Backlog   uint64 // on the rings + in a worker's unaccounted batch
}

// Conserved checks packet conservation: every arrived packet is exactly
// one of forwarded, app-dropped, rejected, tail-dropped, starved, or still
// queued — at any instant, not just at quiescence. This is the invariant
// the fault-injection suite pins; a lost or double-counted packet surfaces
// as a nonzero (or wrapped-negative) Backlog once the plane quiesces.
func (l Ledger) Conserved() bool {
	return l.Arrived == l.Forwarded+l.AppDrops+l.Rejected+l.TailDrops+l.Starved+l.Backlog
}

// TenantStats is one tenant's accounting across every card, plus the
// submissions starved before reaching any card. Its Ledger is the
// per-tenant conservation invariant.
type TenantStats struct {
	Tenant int
	Name   string
	Ledger
	Processed uint64
	Alarms    uint64
	Faults    uint64
	Cycles    uint64
	LanesDead int // failed (card, tenant) lanes
}

// PlaneStats aggregates the plane. Its Ledger's Arrived counts every
// Submit call, including submissions the classifier refused (which belong
// to no tenant).
type PlaneStats struct {
	Shards  []ShardStats
	Tenants []TenantStats
	Ledger
	Failovers uint64
}

// Stats snapshots the plane without stopping it. Per lane, the settled
// outcome counters are read first and the arrival counter last: every
// write path counts a packet's arrival before its outcome, so this read
// order bounds the derived backlog (arrived minus settled) below by the
// true in-flight count and above by packets that arrived during the
// snapshot — never negative, and zero at quiescence. Conserved() holds
// for a mid-run snapshot — per tenant and in aggregate — not just after
// Close.
func (p *Plane) Stats() PlaneStats {
	numT := len(p.tenants)
	ps := PlaneStats{Tenants: make([]TenantStats, numT)}
	for t := range ps.Tenants {
		ps.Tenants[t].Tenant = t
		ps.Tenants[t].Name = p.tenants[t]
	}
	for _, lc := range p.cards {
		s := ShardStats{
			Shard:   lc.id,
			Failed:  lc.failed.Load(),
			Batches: lc.batches.Load(),
		}
		for _, lane := range lc.lanes {
			ts := &ps.Tenants[lane.tenant]
			// Outcomes first, arrival last — the read-order contract.
			tailDrops := lane.tailDrops.Load()
			marked := lane.marked.Load()
			starved := lane.starved.Load()
			processed := lane.processed.Load()
			forwarded := lane.forwarded.Load()
			appDrops := lane.appDrops.Load()
			rejected := lane.rejected.Load()
			alarms := lane.alarms.Load()
			faults := lane.faults.Load()
			ecnMarked := lane.ecnMarked.Load()
			cycles := lane.cycles.Load()
			maxDepth := int(lane.maxDepth.Load())
			arrived := lane.arrived.Load() // last: see above
			settled := forwarded + appDrops + rejected + tailDrops + starved
			backlog := arrived - settled

			s.Arrived += arrived
			s.TailDrops += tailDrops
			s.Marked += marked
			s.Starved += starved
			s.Processed += processed
			s.Forwarded += forwarded
			s.AppDrops += appDrops
			s.Rejected += rejected
			s.Alarms += alarms
			s.Faults += faults
			s.ECNMarked += ecnMarked
			s.Cycles += cycles
			if maxDepth > s.MaxDepth {
				s.MaxDepth = maxDepth
			}
			s.Backlog += int(backlog)

			ts.Arrived += arrived
			ts.TailDrops += tailDrops
			ts.Marked += marked
			ts.Starved += starved
			ts.Processed += processed
			ts.Forwarded += forwarded
			ts.AppDrops += appDrops
			ts.Rejected += rejected
			ts.Alarms += alarms
			ts.Faults += faults
			ts.ECNMarked += ecnMarked
			ts.Cycles += cycles
			ts.Backlog += backlog
			if lane.dead.Load() {
				ts.LanesDead++
			}
		}
		ps.Shards = append(ps.Shards, s)
		ps.Arrived += s.Arrived
		ps.Forwarded += s.Forwarded
		ps.AppDrops += s.AppDrops
		ps.Rejected += s.Rejected
		ps.TailDrops += s.TailDrops
		ps.Marked += s.Marked
		ps.Starved += s.Starved
		ps.ECNMarked += s.ECNMarked
		ps.Backlog += uint64(s.Backlog)
	}
	for t := range ps.Tenants {
		st := p.starvedSubmit[t].Load()
		ps.Tenants[t].Arrived += st
		ps.Tenants[t].Starved += st
		ps.Arrived += st
		ps.Starved += st
	}
	un := p.starvedUnclass.Load()
	ps.Arrived += un
	ps.Starved += un
	ps.Failovers = p.failovers.Load()
	return ps
}

// TenantStatsFor snapshots one tenant's accounting (the same read-order
// contract as Stats).
func (p *Plane) TenantStatsFor(tenant int) (TenantStats, error) {
	if tenant < 0 || tenant >= len(p.tenants) {
		return TenantStats{}, fmt.Errorf("shard: no tenant %d", tenant)
	}
	return p.Stats().Tenants[tenant], nil
}

// LaneCycles returns the simulated cycles consumed per (shard, tenant)
// lane: out[shard][tenant]. The per-tenant isolation bench derives each
// tenant's virtual-time makespan from its slowest lane, the same way the
// plane bench derives the aggregate from its slowest shard.
func (p *Plane) LaneCycles() [][]uint64 {
	out := make([][]uint64, len(p.cards))
	for i, lc := range p.cards {
		row := make([]uint64, len(lc.lanes))
		for t, lane := range lc.lanes {
			row[t] = lane.cycles.Load()
		}
		out[i] = row
	}
	return out
}
