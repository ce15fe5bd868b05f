package shard

// Tenancy tests: per-tenant lanes, the isolation-pinning bugfix sweep
// (SetAdmission clamp, stale dispatch hints, per-tenant conservation), and
// the no-leakage property of tenant-labeled telemetry.

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdmmon/internal/npu"
	"sdmmon/internal/obs"
	"sdmmon/internal/packet"
)

// tenantPkt builds a UDP packet whose source IP's second octet encodes the
// tenant and whose source port selects the flow.
func tenantPkt(t *testing.T, tenant int, flow uint16) []byte {
	t.Helper()
	u := &packet.UDP{SrcPort: 1000 + flow, DstPort: 53, Payload: []byte("query")}
	p := &packet.IPv4{
		TTL: 64, Proto: packet.ProtoUDP,
		Src: packet.IP(10, byte(tenant), 0, 1), Dst: packet.IP(192, 168, 0, 1),
		Payload: u.Marshal(),
	}
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// classifyBySrc reads the tenant back out of the source IP.
func classifyBySrc(pkt []byte) int {
	if len(pkt) < 20 {
		return -1
	}
	return int(pkt[13])
}

// tenantNP builds an installed NP partitioned into two 2-core domains "a"
// and "b".
func tenantNP(t *testing.T, seed int64) *npu.NP {
	t.Helper()
	np := planeNP(t, 4, seed)
	if err := np.SetDomains([]npu.DomainSpec{
		{Name: "a", Cores: []int{0, 1}},
		{Name: "b", Cores: []int{2, 3}},
	}); err != nil {
		t.Fatal(err)
	}
	return np
}

func twoTenantPlane(t *testing.T, shards int, col *obs.Collector, classify func([]byte) int) *Plane {
	t.Helper()
	nps := make([]*npu.NP, shards)
	for i := range nps {
		nps[i] = tenantNP(t, int64(i))
	}
	if classify == nil {
		classify = classifyBySrc
	}
	plane, err := NewPlane(Config{
		NPs:           nps,
		QueueCapacity: 128,
		Obs:           col,
		Tenancy:       &TenancyConfig{Tenants: []string{"a", "b"}, Classify: classify},
	})
	if err != nil {
		t.Fatal(err)
	}
	return plane
}

// TestNewPlaneTenancyValidation: a tenant without a matching protection
// domain on every NP — or a broken tenancy config — must be refused at
// construction, not discovered as misrouted traffic later.
func TestNewPlaneTenancyValidation(t *testing.T) {
	plain := planeNP(t, 4, 99) // no domains installed
	cases := []Config{
		{NPs: []*npu.NP{plain}, QueueCapacity: 8,
			Tenancy: &TenancyConfig{Tenants: []string{"a", "b"}, Classify: classifyBySrc}},
		{NPs: []*npu.NP{tenantNP(t, 0)}, QueueCapacity: 8,
			Tenancy: &TenancyConfig{Tenants: []string{"a", "b"}}}, // no classifier
		{NPs: []*npu.NP{tenantNP(t, 0)}, QueueCapacity: 8,
			Tenancy: &TenancyConfig{Tenants: []string{"a", "a"}, Classify: classifyBySrc}},
		{NPs: []*npu.NP{tenantNP(t, 0)}, QueueCapacity: 8,
			Tenancy: &TenancyConfig{Tenants: []string{"a", ""}, Classify: classifyBySrc}},
	}
	for i, cfg := range cases {
		if p, err := NewPlane(cfg); err == nil {
			p.Close()
			t.Errorf("case %d: NewPlane accepted an invalid tenancy config", i)
		}
	}
}

// TestSetAdmissionClampsToRing pins the soft-capacity bug: SetAdmission
// used to accept any capacity and report it back from Admission() even
// though enforcement silently stopped at the built ring's physical size.
// The clamp makes the reported threshold equal the enforced one.
func TestSetAdmissionClampsToRing(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	defer release()

	plane, err := NewPlane(Config{
		NPs:           []*npu.NP{planeNP(t, 2, 1)},
		QueueCapacity: 10, // ring rounds up to 16
		BatchSize:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()
	plane.drainHook = func(int, [][]byte) { <-gate }

	phys := plane.cards[0].lanes[0].queue.Cap()
	if phys != 16 {
		t.Fatalf("ring capacity %d, want 16", phys)
	}
	if err := plane.SetAdmission(0, 1<<20, 1<<19); err != nil {
		t.Fatal(err)
	}
	cap0, mark0, err := plane.Admission(0)
	if err != nil {
		t.Fatal(err)
	}
	if cap0 != phys || mark0 != phys {
		t.Fatalf("Admission() reports (%d, %d) after oversized SetAdmission, want clamp to (%d, %d)",
			cap0, mark0, phys, phys)
	}

	// Enforcement side: with the worker wedged in the drain hook (holding
	// one in-flight packet), at most cap0 more packets fit. Everything past
	// the reported capacity must tail-drop — reported == enforced.
	pkt := tenantPkt(t, 0, 7)
	admitted, dropped := 0, 0
	for i := 0; i < 3*phys; i++ {
		switch plane.Submit(pkt) {
		case AdmitQueued, AdmitMarked:
			admitted++
		case AdmitDropped:
			dropped++
		default:
			t.Fatal("unexpected starvation on a healthy single-shard plane")
		}
	}
	if admitted > cap0+1 { // +1: the packet parked inside the drain hook
		t.Errorf("admitted %d packets, but Admission() promised capacity %d", admitted, cap0)
	}
	if dropped == 0 {
		t.Error("no tail drops while submitting past the physical ring")
	}

	// Sane requests are untouched, invalid ones still refused.
	if err := plane.SetAdmission(0, 8, 4); err != nil {
		t.Fatal(err)
	}
	if cap0, mark0, _ = plane.Admission(0); cap0 != 8 || mark0 != 4 {
		t.Errorf("in-range SetAdmission altered: got (%d, %d), want (8, 4)", cap0, mark0)
	}
	if err := plane.SetAdmission(0, 0, 0); err == nil {
		t.Error("SetAdmission accepted capacity 0")
	}
	release()
}

// TestStaleHintInvalidatedMidBatch pins satellite 3: SubmitBatch's
// same-flow dispatch cache must not route onto a card that failed between
// two packets of the batch. The classifier (called per packet, before
// dispatch) fails the flow's card mid-batch from the submitting goroutine,
// so the assertion is deterministic: not one packet lands on the failed
// card after FailShard returns.
func TestStaleHintInvalidatedMidBatch(t *testing.T) {
	plane := twoTenantPlane(t, 2, nil, nil)
	defer plane.Close()

	pkt := tenantPkt(t, 0, 1)
	key := FlowKeyOf(pkt)
	target := plane.ShardForTenant(key, 0)
	if target < 0 {
		t.Fatal("no shard for the probe flow")
	}
	other := 1 - target
	lane := plane.cards[target].lanes[0]

	const batchLen, failAt = 30, 15
	var calls, arrivedAtFail int
	classify := func(p []byte) int {
		calls++
		if calls == failAt {
			arrivedAtFail = int(lane.arrived.Load())
			if err := plane.FailShard(target); err != nil {
				t.Error(err)
			}
		}
		return classifyBySrc(p)
	}
	plane.classify = classify

	batch := make([][]byte, batchLen)
	for i := range batch {
		batch[i] = pkt
	}
	out := plane.SubmitBatch(batch)
	if out.Total() != batchLen {
		t.Fatalf("batch accounted %d of %d packets", out.Total(), batchLen)
	}
	if out.Starved != 0 {
		t.Errorf("%d packets starved with a healthy shard remaining", out.Starved)
	}
	if got := int(lane.arrived.Load()); got != arrivedAtFail {
		t.Errorf("failed card admitted %d packets after FailShard returned (stale hint)",
			got-arrivedAtFail)
	}
	if got := int(plane.cards[other].lanes[0].arrived.Load()); got != batchLen-arrivedAtFail {
		t.Errorf("surviving card saw %d packets, want the rerouted %d",
			got, batchLen-arrivedAtFail)
	}

	// The cache is per-call; a fresh batch must not resurrect the hint.
	plane.classify = classifyBySrc
	plane.SubmitBatch(batch)
	if got := int(lane.arrived.Load()); got != arrivedAtFail {
		t.Errorf("failed card admitted %d packets in a fresh batch", got-arrivedAtFail)
	}
}

// TestFailTenantShardIsolatesLane: failing one tenant's lane on one card
// reroutes only that tenant's flows there; the card stays up and the other
// tenant keeps using it.
func TestFailTenantShardIsolatesLane(t *testing.T) {
	plane := twoTenantPlane(t, 2, nil, nil)
	defer plane.Close()

	if err := plane.FailTenantShard(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := plane.FailTenantShard(5, 0); err == nil {
		t.Error("FailTenantShard accepted an out-of-range shard")
	}
	if err := plane.FailTenantShard(0, 9); err == nil {
		t.Error("FailTenantShard accepted an out-of-range tenant")
	}

	for flow := uint16(0); flow < 64; flow++ {
		for tenant := 0; tenant < 2; tenant++ {
			if adm := plane.Submit(tenantPkt(t, tenant, flow)); adm == AdmitStarved {
				t.Fatalf("tenant %d flow %d starved with healthy lanes remaining", tenant, flow)
			}
		}
	}

	if got := plane.cards[0].lanes[0].arrived.Load(); got != 0 {
		t.Errorf("dead lane admitted %d packets", got)
	}
	if plane.cards[0].lanes[1].arrived.Load() == 0 {
		t.Error("tenant b stopped using card 0 after tenant a's lane failed")
	}
	if plane.cards[1].lanes[0].arrived.Load() == 0 {
		t.Error("tenant a's flows did not rehash onto card 1")
	}
	st := plane.Stats()
	if st.Failovers != 0 {
		t.Errorf("lane failover escalated to %d card failovers", st.Failovers)
	}
	for _, ts := range st.Tenants {
		if !ts.Conserved() {
			t.Errorf("tenant %q not conserved: %+v", ts.Name, ts)
		}
	}
	if st.Tenants[0].LanesDead != 1 || st.Tenants[1].LanesDead != 0 {
		t.Errorf("dead lanes (%d, %d), want (1, 0)",
			st.Tenants[0].LanesDead, st.Tenants[1].LanesDead)
	}
}

// TestQuarantinedDomainFailsLaneNotCard: when one tenant's protection
// domain on one NP is fully quarantined, that tenant's lane there dies (its
// backlog shed as starved drops, its flows rehashed) while the card keeps
// serving the other tenant.
func TestQuarantinedDomainFailsLaneNotCard(t *testing.T) {
	plane := twoTenantPlane(t, 2, nil, nil)
	defer plane.Close()

	// Wedge tenant a's domain on card 0 through its domain view's
	// supervisor entry point.
	a, b := plane.cards[0].lanes[0].view, plane.cards[0].lanes[1].view
	for _, core := range []int{0, 1} {
		if err := a.Quarantine(core); err != nil {
			t.Fatal(err)
		}
	}
	if a.Healthy() {
		t.Fatal("domain a still healthy after quarantining both cores")
	}
	if !b.Healthy() {
		t.Fatal("quarantining domain a took down domain b")
	}

	// Drive tenant a until the worker discovers the wedged domain and
	// fails the lane.
	lane := plane.cards[0].lanes[0]
	deadline := time.Now().Add(5 * time.Second)
	for !lane.dead.Load() {
		if time.Now().After(deadline) {
			t.Fatal("lane never failed over on a quarantined domain")
		}
		for flow := uint16(0); flow < 32; flow++ {
			plane.Submit(tenantPkt(t, 0, flow))
		}
	}

	// Tenant b's lane on the same card still takes and completes traffic.
	for flow := uint16(0); flow < 32; flow++ {
		if adm := plane.Submit(tenantPkt(t, 1, flow)); adm == AdmitStarved {
			t.Fatal("tenant b starved on a card whose a-lane died")
		}
	}
	st := plane.Stats()
	if st.Failovers != 0 {
		t.Errorf("lane death escalated to %d card failovers", st.Failovers)
	}
	for _, ts := range st.Tenants {
		if !ts.Conserved() {
			t.Errorf("tenant %q not conserved: %+v", ts.Name, ts)
		}
	}
	if st.Tenants[1].Starved != 0 {
		t.Errorf("tenant b shows %d starved drops from tenant a's failure", st.Tenants[1].Starved)
	}
}

// TestTenantLockdownScoped: LockdownTenant closes exactly one tenant's
// admission.
func TestTenantLockdownScoped(t *testing.T) {
	plane := twoTenantPlane(t, 1, nil, nil)
	defer plane.Close()

	if err := plane.LockdownTenant(0); err != nil {
		t.Fatal(err)
	}
	if !plane.TenantLockedDown(0) || plane.TenantLockedDown(1) {
		t.Fatal("tenant lockdown flags wrong")
	}
	if adm := plane.Submit(tenantPkt(t, 0, 1)); adm != AdmitStarved {
		t.Errorf("locked-down tenant admitted: %v", adm)
	}
	if adm := plane.Submit(tenantPkt(t, 1, 1)); adm == AdmitStarved {
		t.Error("bystander tenant starved by another tenant's lockdown")
	}
	if err := plane.ClearLockdownTenant(0); err != nil {
		t.Fatal(err)
	}
	if adm := plane.Submit(tenantPkt(t, 0, 1)); adm == AdmitStarved {
		t.Error("tenant still starved after ClearLockdownTenant")
	}
	st := plane.Stats()
	if st.Tenants[0].Starved != 1 {
		t.Errorf("tenant a starved count %d, want exactly the lockdown drop", st.Tenants[0].Starved)
	}
	if st.Tenants[1].Starved != 0 {
		t.Errorf("tenant b starved count %d, want 0", st.Tenants[1].Starved)
	}
}

// TestPerTenantAdmissionScoped: SetTenantAdmission moves one lane;
// SetAdmission moves the whole card.
func TestPerTenantAdmissionScoped(t *testing.T) {
	plane := twoTenantPlane(t, 1, nil, nil)
	defer plane.Close()

	if err := plane.SetTenantAdmission(0, 0, 4, 2); err != nil {
		t.Fatal(err)
	}
	capA, markA, _ := plane.TenantAdmission(0, 0)
	capB, markB, _ := plane.TenantAdmission(0, 1)
	if capA != 4 || markA != 2 {
		t.Errorf("tenant a admission (%d, %d), want (4, 2)", capA, markA)
	}
	if capB != 128 || markB != 64 {
		t.Errorf("tenant b admission moved to (%d, %d) by tenant a's tightening", capB, markB)
	}
	if err := plane.SetAdmission(0, 16, 8); err != nil {
		t.Fatal(err)
	}
	for tenant := 0; tenant < 2; tenant++ {
		c, m, _ := plane.TenantAdmission(0, tenant)
		if c != 16 || m != 8 {
			t.Errorf("tenant %d admission (%d, %d) after card-wide set, want (16, 8)", tenant, c, m)
		}
	}
}

// TestTenantCounterLeakage drives only tenant a — including a lane
// failover on a, the noisiest response path — and requires tenant b's
// entire labeled slice of the shared registry to stay byte-identical.
func TestTenantCounterLeakage(t *testing.T) {
	col := obs.New(64)
	plane := twoTenantPlane(t, 2, col, nil)
	defer plane.Close()

	canon := func(s obs.Snapshot) string {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	before := canon(col.Registry().Snapshot().FilterLabel("tenant", "b"))
	if before == "{}" || before == "" {
		t.Log("note: tenant b slice empty before traffic") // still a valid comparison
	}

	for flow := uint16(0); flow < 128; flow++ {
		plane.Submit(tenantPkt(t, 0, flow))
	}
	if err := plane.FailTenantShard(0, 0); err != nil {
		t.Fatal(err)
	}
	for flow := uint16(0); flow < 128; flow++ {
		plane.Submit(tenantPkt(t, 0, flow))
	}

	after := canon(col.Registry().Snapshot().FilterLabel("tenant", "b"))
	if before != after {
		t.Errorf("tenant b's metric slice moved under tenant a's traffic:\nbefore %s\nafter  %s",
			before, after)
	}
	// And tenant a's slice did move — the comparison is not vacuous.
	aSlice := col.Registry().Snapshot().FilterLabel("tenant", "a")
	if aSlice.Counters[obs.Labeled("shard_arrived_total", "tenant", "a")] == 0 {
		t.Error("tenant a's labeled arrival counter never moved")
	}
}

// TestPerTenantConservationUnderChaos is the satellite-4 suite: concurrent
// producers for two tenants, with card failover, lane failover, tenant and
// plane lockdown, and Close racing them — and the per-tenant conservation
// invariant checked at mid-run snapshots, not just at quiescence. Run with
// -race.
func TestPerTenantConservationUnderChaos(t *testing.T) {
	plane := twoTenantPlane(t, 3, nil, nil)

	var submitted [2]atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				batch := make([][]byte, 0, 16)
				var perTenant [2]uint64
				for j := 0; j < 16; j++ {
					tenant := (i + j + w) % 2
					batch = append(batch, tenantPkt(t, tenant, uint16((w*131+i*17+j)%512)))
					perTenant[tenant]++
				}
				out := plane.SubmitBatch(batch)
				if out.Total() != len(batch) {
					t.Errorf("batch accounted %d of %d", out.Total(), len(batch))
					return
				}
				submitted[0].Add(perTenant[0])
				submitted[1].Add(perTenant[1])
			}
		}(w)
	}

	// Mid-run snapshots: conservation per tenant at any instant.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := plane.Stats()
			for _, ts := range st.Tenants {
				if !ts.Conserved() {
					t.Errorf("mid-run: tenant %q not conserved: %+v", ts.Name, ts)
					return
				}
			}
			if !st.Conserved() {
				t.Errorf("mid-run: plane not conserved")
				return
			}
		}
	}()

	time.Sleep(30 * time.Millisecond)
	if err := plane.FailTenantShard(0, 1); err != nil {
		t.Error(err)
	}
	time.Sleep(10 * time.Millisecond)
	if err := plane.FailShard(1); err != nil {
		t.Error(err)
	}
	if err := plane.LockdownTenant(0); err != nil {
		t.Error(err)
	}
	time.Sleep(10 * time.Millisecond)
	if err := plane.ClearLockdownTenant(0); err != nil {
		t.Error(err)
	}
	plane.Lockdown()
	time.Sleep(5 * time.Millisecond)
	plane.ClearLockdown()
	time.Sleep(20 * time.Millisecond)

	close(stop)
	wg.Wait()
	plane.Close()

	st := plane.Stats()
	for tenant, ts := range st.Tenants {
		if !ts.Conserved() {
			t.Errorf("final: tenant %q not conserved: %+v", ts.Name, ts)
		}
		if ts.Backlog != 0 {
			t.Errorf("final: tenant %q backlog %d after Close", ts.Name, ts.Backlog)
		}
		if want := submitted[tenant].Load(); ts.Arrived != want {
			t.Errorf("tenant %q arrived %d, submitted %d", ts.Name, ts.Arrived, want)
		}
	}
	if !st.Conserved() {
		t.Errorf("final: plane not conserved: %+v", st)
	}
	if got, want := st.Arrived, submitted[0].Load()+submitted[1].Load(); got != want {
		t.Errorf("plane arrived %d, submitted %d", got, want)
	}
}

// TestSingleTenantTenancyNoop: a one-tenant TenancyConfig behaves exactly
// like the historical plane — unlabeled series, whole-NP drains.
func TestSingleTenantTenancyNoop(t *testing.T) {
	col := obs.New(64)
	plane, err := NewPlane(Config{
		NPs:           []*npu.NP{planeNP(t, 2, 5)},
		QueueCapacity: 32,
		Obs:           col,
		Tenancy:       &TenancyConfig{Tenants: []string{"solo"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for flow := uint16(0); flow < 32; flow++ {
		if adm := plane.Submit(tenantPkt(t, 3, flow)); adm == AdmitStarved {
			t.Fatal("single-tenant plane starved healthy traffic")
		}
	}
	plane.Close()
	snap := col.Registry().Snapshot()
	if got := snap.Counters["shard_arrived_total"]; got != 32 {
		t.Errorf("bare shard_arrived_total = %d, want 32", got)
	}
	for name := range snap.Counters {
		if obs.HasLabel(name, "tenant", "solo") {
			t.Errorf("single-tenant plane registered labeled series %q", name)
		}
	}
	st := plane.Stats()
	if len(st.Tenants) != 1 || !st.Tenants[0].Conserved() || st.Tenants[0].Backlog != 0 {
		t.Errorf("single-tenant TenantStats wrong: %+v", st.Tenants)
	}
}
