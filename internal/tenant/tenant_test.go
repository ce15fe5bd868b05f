package tenant

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"sdmmon/internal/apps"
	"sdmmon/internal/npu"
	"sdmmon/internal/obs"
	"sdmmon/internal/packet"
	"sdmmon/internal/rollout"
	"sdmmon/internal/seccrypto"
)

// tnp builds one unpartitioned line-card NP.
func tnp(t *testing.T, cores int, sup npu.SupervisorConfig) *npu.NP {
	t.Helper()
	np, err := npu.New(npu.Config{Cores: cores, MonitorsEnabled: true, Supervisor: sup})
	if err != nil {
		t.Fatal(err)
	}
	return np
}

// twoTenantMgr builds a manager with tenants a (cores 0,1) and b (cores
// 2,3) over nps fresh 4-core NPs. Supervisor disabled unless sup is set.
func twoTenantMgr(t *testing.T, nps int, col *obs.Collector, sup npu.SupervisorConfig) *Manager {
	t.Helper()
	cards := make([]*npu.NP, nps)
	for i := range cards {
		cards[i] = tnp(t, 4, sup)
	}
	mgr, err := New(Config{
		NPs: cards,
		Specs: []Spec{
			{Name: "a", Cores: []int{0, 1}},
			{Name: "b", Cores: []int{2, 3}},
		},
		Classify:      benchClassify,
		QueueCapacity: 64,
		Obs:           col,
	})
	if err != nil {
		t.Fatal(err)
	}
	return mgr
}

func mustPkt(t *testing.T, tenant int, flow uint16) []byte {
	t.Helper()
	b, err := benchPkt(tenant, flow, []byte("tenant-test"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func counterVal(col *obs.Collector, name string, tenant string) uint64 {
	return col.Registry().Counter(obs.Labeled(name, "tenant", tenant)).Value()
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Specs: []Spec{{Name: "a", Cores: []int{0}}}, QueueCapacity: 8}); err == nil {
		t.Fatal("manager without NPs accepted")
	}
	if _, err := New(Config{NPs: []*npu.NP{tnp(t, 2, npu.SupervisorConfig{})}, QueueCapacity: 8}); err == nil {
		t.Fatal("manager without tenant specs accepted")
	}
	// Overlapping core claims are refused by the npu domain layer.
	_, err := New(Config{
		NPs: []*npu.NP{tnp(t, 4, npu.SupervisorConfig{})},
		Specs: []Spec{
			{Name: "a", Cores: []int{0, 1}},
			{Name: "b", Cores: []int{1, 2}},
		},
		Classify:      benchClassify,
		QueueCapacity: 8,
	})
	if err == nil {
		t.Fatal("overlapping tenant core claims accepted")
	}
}

func TestInstallLedgerAntiDowngrade(t *testing.T) {
	col := obs.New(64)
	mgr := twoTenantMgr(t, 2, col, npu.SupervisorConfig{})
	defer mgr.Close()

	v1 := AppBundle{App: apps.IPv4CM(), Param: 0x11, Version: "1.0", Sequence: 1}
	if err := mgr.Install("a", v1); err != nil {
		t.Fatalf("install a seq 1: %v", err)
	}
	if hw, _ := mgr.HighWater("a", "ipv4cm"); hw != 1 {
		t.Fatalf("tenant a high-water = %d, want 1", hw)
	}

	// Replaying the same sequence is a downgrade for tenant a...
	if err := mgr.Install("a", v1); !errors.Is(err, seccrypto.ErrDowngrade) {
		t.Fatalf("replayed sequence: err = %v, want ErrDowngrade", err)
	}
	if got := counterVal(col, "tenant_refused_total", "a"); got != 1 {
		t.Fatalf("tenant_refused_total{a} = %d, want 1", got)
	}
	// ...but tenant b's ledger is independent: the same sequence is fresh.
	if err := mgr.Install("b", v1); err != nil {
		t.Fatalf("install b seq 1: %v", err)
	}

	v2 := AppBundle{App: apps.IPv4CM(), Param: 0x12, Version: "1.1", Sequence: 2}
	if err := mgr.Install("a", v2); err != nil {
		t.Fatalf("install a seq 2: %v", err)
	}

	// Ledger persistence survives a plane rebuild.
	img, err := mgr.MarshalLedger("a")
	if err != nil {
		t.Fatal(err)
	}
	mgr2 := twoTenantMgr(t, 1, nil, npu.SupervisorConfig{})
	defer mgr2.Close()
	if err := mgr2.RestoreLedger("a", img); err != nil {
		t.Fatal(err)
	}
	if hw, _ := mgr2.HighWater("a", "ipv4cm"); hw != 2 {
		t.Fatalf("restored high-water = %d, want 2", hw)
	}
	if err := mgr2.Install("a", v2); !errors.Is(err, seccrypto.ErrDowngrade) {
		t.Fatalf("restored ledger allowed replay: %v", err)
	}

	if _, err := mgr.HighWater("ghost", "ipv4cm"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("ghost tenant: err = %v, want ErrUnknownTenant", err)
	}
}

func TestInstallLandsOnlyOnTenantSlots(t *testing.T) {
	mgr := twoTenantMgr(t, 2, nil, npu.SupervisorConfig{})
	defer mgr.Close()
	if err := mgr.Install("a", AppBundle{App: apps.UDPEcho(), Param: 0xA1}); err != nil {
		t.Fatal(err)
	}
	for i, np := range mgr.nps {
		for _, core := range []int{0, 1} {
			if name, ok := np.AppOn(core); !ok || name != "udpecho" {
				t.Fatalf("NP %d core %d: app %q ok=%v, want udpecho", i, core, name, ok)
			}
		}
		for _, core := range []int{2, 3} {
			if name, ok := np.AppOn(core); ok {
				t.Fatalf("NP %d core %d: tenant a's install leaked app %q onto tenant b's slot", i, core, name)
			}
		}
	}
}

func TestRolloutCleanUpgrade(t *testing.T) {
	col := obs.New(64)
	mgr := twoTenantMgr(t, 3, col, npu.SupervisorConfig{})
	defer mgr.Close()
	if err := mgr.Install("a", AppBundle{App: apps.UDPEcho(), Param: 0xA1, Version: "1.0", Sequence: 1}); err != nil {
		t.Fatal(err)
	}

	rep, err := mgr.Rollout("a", AppBundle{App: apps.UDPEcho(), Param: 0xA2, Version: "1.1", Sequence: 2}, rollout.Gate{}, 42)
	if err != nil {
		t.Fatalf("clean rollout: %v (reason %q)", err, rep.Reason)
	}
	if !rep.Completed || rep.RolledBack {
		t.Fatalf("rollout completed=%v rolledback=%v, want completed", rep.Completed, rep.RolledBack)
	}
	if rep.Waves != 3 {
		t.Fatalf("waves = %d, want 3", rep.Waves)
	}
	for _, out := range rep.Outcomes {
		if out.State != rollout.Committed || out.Err != nil {
			t.Fatalf("NP %d outcome %+v, want committed", out.NP, out)
		}
		if out.Baseline.Processed == 0 || out.After.Processed == 0 {
			t.Fatalf("NP %d: empty health samples %+v", out.NP, out)
		}
	}
	if hw, _ := mgr.HighWater("a", "udpecho"); hw != 2 {
		t.Fatalf("post-rollout high-water = %d, want 2", hw)
	}
	if got := counterVal(col, "tenant_rollouts_completed_total", "a"); got != 1 {
		t.Fatalf("tenant_rollouts_completed_total{a} = %d, want 1", got)
	}

	// The completed sequence is now the floor: replaying it is refused
	// before anything stages.
	if _, err := mgr.Rollout("a", AppBundle{App: apps.UDPEcho(), Param: 0xA3, Version: "1.1", Sequence: 2}, rollout.Gate{}, 43); !errors.Is(err, seccrypto.ErrDowngrade) {
		t.Fatalf("replayed rollout sequence: err = %v, want ErrDowngrade", err)
	}
}

// TestRolloutRegressionBystanderByteIdentical is the isolation-pinning
// proof for rollouts: tenant a ships a release that passes every install
// gate and faults under live traffic; the canary health gate catches it and
// rolls tenant a back — and tenant b's entire telemetry slice, domain
// statistics and installed software are byte-for-byte identical across the
// whole episode.
func TestRolloutRegressionBystanderByteIdentical(t *testing.T) {
	col := obs.New(64)
	mgr := twoTenantMgr(t, 2, col, npu.SupervisorConfig{})
	defer mgr.Close()
	if err := mgr.Install("a", AppBundle{App: apps.UDPEcho(), Param: 0xA1, Version: "1.0", Sequence: 1}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Install("b", AppBundle{App: apps.IPv4CM(), Param: 0xB1, Version: "3.0", Sequence: 7}); err != nil {
		t.Fatal(err)
	}

	// Freeze tenant b's world before the hostile episode.
	bBefore, err := col.Snapshot().FilterLabel("tenant", "b").MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	bStats := make([]npu.Stats, len(mgr.nps))
	for i, np := range mgr.nps {
		bStats[i] = domainOf(t, np, "b").Stats()
	}

	bad := AppBundle{App: apps.FaultyEcho(), Param: 0xA2, Version: "1.1", Sequence: 2}
	rep, err := mgr.Rollout("a", bad, rollout.Gate{HealthPackets: 32}, 99)
	if !errors.Is(err, ErrHealthRegression) {
		t.Fatalf("faulty rollout: err = %v, want ErrHealthRegression", err)
	}
	if !rep.RolledBack || rep.Completed {
		t.Fatalf("faulty rollout report %+v, want rolled back", rep)
	}
	if rep.Waves != 1 {
		t.Fatalf("regression escaped the canary: waves = %d, want 1", rep.Waves)
	}
	if out := rep.Outcomes[0]; out.State != rollout.RolledBack {
		t.Fatalf("canary outcome %+v, want rolled back", out)
	}
	if rep.Outcomes[1].State != rollout.Pending {
		t.Fatalf("NP 1 was touched by a canary-stage regression: %+v", rep.Outcomes[1])
	}
	if got := counterVal(col, "tenant_rollbacks_total", "a"); got != 1 {
		t.Fatalf("tenant_rollbacks_total{a} = %d, want 1", got)
	}

	// Tenant b: telemetry byte-identical, domain stats identical, software
	// untouched, health untouched.
	bAfter, err := col.Snapshot().FilterLabel("tenant", "b").MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bBefore, bAfter) {
		t.Fatalf("bystander telemetry changed across tenant a's rollback:\nbefore %s\nafter  %s", bBefore, bAfter)
	}
	for i, np := range mgr.nps {
		ds := domainOf(t, np, "b").Stats()
		if !reflect.DeepEqual(ds, bStats[i]) {
			t.Fatalf("NP %d: bystander domain stats changed: %+v -> %+v", i, bStats[i], ds)
		}
		for _, core := range []int{2, 3} {
			if name, ok := np.AppOn(core); !ok || name != "ipv4cm" {
				t.Fatalf("NP %d core %d: bystander app %q ok=%v after rollback", i, core, name, ok)
			}
		}
		if !domainOf(t, np, "b").Healthy() {
			t.Fatalf("NP %d: bystander domain unhealthy after a's rollback", i)
		}
	}

	// The rolled-back sequence was never accepted, so the fixed release can
	// reuse it.
	if hw, _ := mgr.HighWater("a", "udpecho"); hw != 1 {
		t.Fatalf("rolled-back rollout advanced the ledger to %d", hw)
	}
	rep, err = mgr.Rollout("a", AppBundle{App: apps.UDPEcho(), Param: 0xA3, Version: "1.1-fixed", Sequence: 2}, rollout.Gate{}, 100)
	if err != nil || !rep.Completed {
		t.Fatalf("retry with fixed release: err=%v report %+v", err, rep)
	}
	if hw, _ := mgr.HighWater("a", "udpecho"); hw != 2 {
		t.Fatalf("retry did not advance ledger: high-water %d", hw)
	}
}

// TestRolloutQuarantineGate drives the other regression trigger: with the
// supervisor armed, the faulty canary quarantines its own cores, and the
// gate fails on quarantines even before the rate comparison.
func TestRolloutQuarantineGate(t *testing.T) {
	sup := npu.SupervisorConfig{Window: 16, Threshold: 4, ProbationPackets: 8}
	mgr := twoTenantMgr(t, 2, nil, sup)
	defer mgr.Close()
	if err := mgr.Install("a", AppBundle{App: apps.UDPEcho(), Param: 0xA1, Sequence: 1}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Install("b", AppBundle{App: apps.IPv4CM(), Param: 0xB1, Sequence: 1}); err != nil {
		t.Fatal(err)
	}
	rep, err := mgr.Rollout("a", AppBundle{App: apps.FaultyEcho(), Param: 0xA2, Sequence: 2}, rollout.Gate{HealthPackets: 32}, 7)
	if !errors.Is(err, ErrHealthRegression) {
		t.Fatalf("err = %v, want ErrHealthRegression", err)
	}
	if !rep.RolledBack {
		t.Fatalf("report %+v, want rolled back", rep)
	}
	// The blast radius stays inside tenant a: b's domain never loses a core.
	for i, np := range mgr.nps {
		if !domainOf(t, np, "b").Healthy() {
			t.Fatalf("NP %d: bystander lost health during a's quarantine storm", i)
		}
	}
}

func TestSnapshotAndTenantControls(t *testing.T) {
	col := obs.New(64)
	mgr := twoTenantMgr(t, 2, col, npu.SupervisorConfig{})
	if err := mgr.Install("a", AppBundle{App: apps.IPv4CM(), Param: 0xA1}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Install("b", AppBundle{App: apps.IPv4CM(), Param: 0xB1}); err != nil {
		t.Fatal(err)
	}

	var pkts [][]byte
	for i := 0; i < 40; i++ {
		pkts = append(pkts, mustPkt(t, 0, uint16(i%8)))
	}
	for i := 0; i < 24; i++ {
		pkts = append(pkts, mustPkt(t, 1, uint16(i%8)))
	}
	mgr.Plane().SubmitBatch(pkts)

	// Tenant-scoped lockdown levers resolve by name.
	if err := mgr.Lockdown("a"); err != nil {
		t.Fatal(err)
	}
	if !mgr.Plane().TenantLockedDown(0) {
		t.Fatal("tenant a not locked down")
	}
	if mgr.Plane().TenantLockedDown(1) {
		t.Fatal("tenant b locked down by a's lockdown")
	}
	if err := mgr.Unlock("a"); err != nil {
		t.Fatal(err)
	}
	mgr.Close()

	snapA, err := mgr.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	snapB, err := mgr.Snapshot("b")
	if err != nil {
		t.Fatal(err)
	}
	if snapA.Plane.Arrived != 40 || snapB.Plane.Arrived != 24 {
		t.Fatalf("arrived a=%d b=%d, want 40/24", snapA.Plane.Arrived, snapB.Plane.Arrived)
	}
	if !snapA.Plane.Conserved() || !snapB.Plane.Conserved() {
		t.Fatalf("snapshots not conserved: a=%+v b=%+v", snapA.Plane, snapB.Plane)
	}
	if len(snapA.Domains) != 2 {
		t.Fatalf("snapshot has %d domain accounts, want 2", len(snapA.Domains))
	}
	var domA uint64
	for _, ds := range snapA.Domains {
		domA += ds.Processed
	}
	if domA != snapA.Plane.Processed {
		t.Fatalf("domain processed %d != plane processed %d", domA, snapA.Plane.Processed)
	}

	// Quarantine goes through the domain gate: tenant a cannot name b's core.
	if err := mgr.Quarantine("a", 0, 2); !errors.Is(err, npu.ErrDomainViolation) {
		t.Fatalf("cross-tenant quarantine: err = %v, want ErrDomainViolation", err)
	}
	if err := mgr.Quarantine("a", 0, 0); err != nil {
		t.Fatalf("in-domain quarantine: %v", err)
	}
	if _, err := mgr.Snapshot("ghost"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("ghost snapshot: err = %v, want ErrUnknownTenant", err)
	}
}

func TestMeasureIsolation(t *testing.T) {
	base, err := MeasureIsolation(IsolationConfig{
		Tenants: 1, Shards: 2, CoresPerTenant: 2, PacketsPerTenant: 512, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := MeasureIsolation(IsolationConfig{
		Tenants: 4, Shards: 2, CoresPerTenant: 2, PacketsPerTenant: 512, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.PerTenant) != 4 {
		t.Fatalf("per-tenant series has %d entries, want 4", len(multi.PerTenant))
	}
	for i, pps := range multi.PerTenant {
		if pps <= 0 {
			t.Fatalf("tenant %d measured %v pkts/sec", i, pps)
		}
	}
	// The isolation claim: a tenant keeps its own cores, so adding three
	// neighbors must not divide its throughput. Allow modest scheduling
	// noise but reject anything resembling proportional degradation.
	if multi.MinPktsPerSec < 0.5*base.MinPktsPerSec {
		t.Fatalf("isolation broken: 4-tenant min %.0f vs single-tenant %.0f pkts/sec",
			multi.MinPktsPerSec, base.MinPktsPerSec)
	}
}

// TestRolloutLaterNPRegressionRollsBackAll pins the tenant rollback scope:
// a regression on the last NP rolls the tenant's domain back on every NP it
// committed, not only the one that regressed. NPs 0 and 1 already run the
// faulting release, so shipping it again does not raise their event rate;
// NP 2's domain runs the clean echo, so the same release regresses there.
func TestRolloutLaterNPRegressionRollsBackAll(t *testing.T) {
	mgr := twoTenantMgr(t, 3, nil, npu.SupervisorConfig{})
	defer mgr.Close()
	if err := mgr.Install("a", AppBundle{App: apps.FaultyEcho(), Param: 0xA1, Version: "1.0", Sequence: 1}); err != nil {
		t.Fatal(err)
	}
	clean, graph, err := build(AppBundle{App: apps.UDPEcho(), Param: 0xA1})
	if err != nil {
		t.Fatal(err)
	}
	if err := domainOf(t, mgr.nps[2], "a").InstallAll("udpecho", clean, graph, 0xA1); err != nil {
		t.Fatal(err)
	}
	rep, err := mgr.Rollout("a", AppBundle{App: apps.FaultyEcho(), Param: 0xA2, Version: "1.1", Sequence: 2}, rollout.Gate{HealthPackets: 32}, 5)
	if !errors.Is(err, ErrHealthRegression) {
		t.Fatalf("err = %v, want ErrHealthRegression at NP 2", err)
	}
	if rep.Waves != 3 || !rep.RolledBack || rep.Completed {
		t.Fatalf("report waves=%d rolledback=%v completed=%v, want 3/true/false", rep.Waves, rep.RolledBack, rep.Completed)
	}
	for _, out := range rep.Outcomes {
		if out.State != rollout.RolledBack {
			t.Fatalf("NP %d outcome %+v, want rolled back", out.NP, out)
		}
	}
	for i, np := range mgr.nps {
		if p, ok := np.ParamOn(0); !ok || p != 0xA1 {
			t.Fatalf("NP %d core 0 param %#x ok=%v after rollback, want 0xA1", i, p, ok)
		}
	}
	// NP 2 is back on the clean echo (FaultyEcho shares its name and
	// parameter, so only the traffic tells them apart).
	if h, err := sampleDomain(domainOf(t, mgr.nps[2], "a"), packet.NewGenerator(1), 16); err != nil || h.Rate() != 0 {
		t.Fatalf("NP 2 after rollback: sample %+v err %v, want the clean echo", h, err)
	}
	if hw, _ := mgr.HighWater("a", "udpecho"); hw != 1 {
		t.Fatalf("rolled-back rollout advanced the ledger to %d", hw)
	}
}

// domainOf resolves a tenant's protection-domain view on one NP.
func domainOf(t *testing.T, np *npu.NP, name string) *npu.Domain {
	t.Helper()
	d, err := np.Domain(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
