package npu

// Protection-domain tests: partition validation, the domain views' install
// path (cross-tenant installs must be refused), per-domain statistics,
// domain-restricted batch drains, and the per-instance metric namespace
// (two NPs on one collector keep disjoint series).

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"sdmmon/internal/apps"
	"sdmmon/internal/obs"
	"sdmmon/internal/packet"
)

func domainNP(t *testing.T, cores int) *NP {
	t.Helper()
	np := newNP(t, cores, true)
	bin, g := makeBundle(t, apps.IPv4CM(), 0xD0)
	if err := np.InstallAll("ipv4cm", bin, g, 0xD0); err != nil {
		t.Fatal(err)
	}
	return np
}

// view resolves a domain of np's current partition.
func view(t *testing.T, np *NP, name string) *Domain {
	t.Helper()
	d, err := np.Domain(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSetDomainsValidation(t *testing.T) {
	np := domainNP(t, 4)
	bad := [][]DomainSpec{
		{{Name: "", Cores: []int{0}}},
		{{Name: "a", Cores: []int{0}}, {Name: "a", Cores: []int{1}}},
		{{Name: "a", Cores: nil}},
		{{Name: "a", Cores: []int{4}}},
		{{Name: "a", Cores: []int{0}}, {Name: "b", Cores: []int{0}}},
	}
	for i, specs := range bad {
		if err := np.SetDomains(specs); err == nil {
			t.Errorf("case %d: SetDomains accepted an invalid partition", i)
		}
	}
	// A failed SetDomains must leave the previous (root-only) partition.
	if got := np.Domains(); len(got) != 1 || got[0] != "" {
		t.Errorf("failed SetDomains mutated the partition: %v", got)
	}

	if err := np.SetDomains([]DomainSpec{
		{Name: "a", Cores: []int{0, 1}},
		{Name: "b", Cores: []int{3}},
	}); err != nil {
		t.Fatal(err)
	}
	if d, _ := np.DomainOf(2); d != "" {
		t.Errorf("unlisted core 2 in domain %q, want root", d)
	}
	if d, _ := np.DomainOf(3); d != "b" {
		t.Errorf("core 3 in domain %q, want b", d)
	}
	if cores := view(t, np, "a").cores; len(cores) != 2 || cores[0] != 0 || cores[1] != 1 {
		t.Errorf("domain a owns cores %v", cores)
	}
	if _, err := np.Domain("ghost"); !errors.Is(err, ErrUnknownDomain) {
		t.Errorf("unknown domain error = %v", err)
	}
}

// TestCrossDomainInstallRefused is the tentpole's access-control
// acceptance check: no install, stage, commit, rollback, or quarantine
// addressed through one domain may reach a core another domain owns — and
// the refusal is ErrDomainViolation with no state change.
func TestCrossDomainInstallRefused(t *testing.T) {
	np := domainNP(t, 4)
	if err := np.SetDomains([]DomainSpec{
		{Name: "a", Cores: []int{0, 1}},
		{Name: "b", Cores: []int{2, 3}},
	}); err != nil {
		t.Fatal(err)
	}
	bin, g := makeBundle(t, apps.UDPEcho(), 0xE0)
	a := view(t, np, "a")

	if err := a.Install(2, "udpecho", bin, g, 0xE0); !errors.Is(err, ErrDomainViolation) {
		t.Errorf("a.Install onto b's core: %v, want ErrDomainViolation", err)
	}
	if err := a.StageInstall(3, "udpecho", bin, g, 0xE0); !errors.Is(err, ErrDomainViolation) {
		t.Errorf("a.StageInstall onto b's core: %v, want ErrDomainViolation", err)
	}
	if _, err := a.Commit(2); !errors.Is(err, ErrDomainViolation) {
		t.Errorf("a.Commit onto b's core: %v, want ErrDomainViolation", err)
	}
	if _, err := a.Rollback(2); !errors.Is(err, ErrDomainViolation) {
		t.Errorf("a.Rollback onto b's core: %v, want ErrDomainViolation", err)
	}
	if err := a.Quarantine(2); !errors.Is(err, ErrDomainViolation) {
		t.Errorf("a.Quarantine onto b's core: %v, want ErrDomainViolation", err)
	}
	if _, err := np.Domain("ghost"); !errors.Is(err, ErrUnknownDomain) {
		t.Errorf("unknown domain install: %v, want ErrUnknownDomain", err)
	}
	// b's cores are untouched by all of the above.
	for _, core := range []int{2, 3} {
		if name, ok := np.AppOn(core); !ok || name != "ipv4cm" {
			t.Errorf("core %d app = %q, %v after refused cross-domain calls", core, name, ok)
		}
	}

	// The domain-wide install lands on exactly the domain's cores.
	if err := a.InstallAll("udpecho", bin, g, 0xE0); err != nil {
		t.Fatal(err)
	}
	for core := 0; core < 4; core++ {
		want := "ipv4cm"
		if core < 2 {
			want = "udpecho"
		}
		if name, _ := np.AppOn(core); name != want {
			t.Errorf("core %d runs %q after a.InstallAll, want %q", core, name, want)
		}
	}
}

// TestDomainStagedCommitRollback drives the two-phase upgrade through the
// domain views and checks the all-or-nothing guard.
func TestDomainStagedCommitRollback(t *testing.T) {
	np := domainNP(t, 4)
	if err := np.SetDomains([]DomainSpec{
		{Name: "a", Cores: []int{0, 1}},
		{Name: "b", Cores: []int{2, 3}},
	}); err != nil {
		t.Fatal(err)
	}
	bin, g := makeBundle(t, apps.UDPEcho(), 0xE1)
	a, b := view(t, np, "a"), view(t, np, "b")

	// Nothing staged anywhere: the domain-wide commit must refuse.
	if _, err := a.CommitAll(); !errors.Is(err, ErrNothingStaged) {
		t.Fatalf("a.CommitAll with nothing staged: %v", err)
	}
	if err := a.StageInstallAll("udpecho", bin, g, 0xE1); err != nil {
		t.Fatal(err)
	}
	// b has nothing staged; a's staging must not be visible to b's commit.
	if _, err := b.CommitAll(); !errors.Is(err, ErrNothingStaged) {
		t.Fatalf("b.CommitAll saw a's staged bundles: %v", err)
	}
	if _, err := a.CommitAll(); err != nil {
		t.Fatal(err)
	}
	for core := 0; core < 4; core++ {
		want := "ipv4cm"
		if core < 2 {
			want = "udpecho"
		}
		if name, _ := np.AppOn(core); name != want {
			t.Errorf("core %d runs %q after a.CommitAll, want %q", core, name, want)
		}
	}
	if _, err := a.RollbackAll(); err != nil {
		t.Fatal(err)
	}
	for core := 0; core < 2; core++ {
		if name, _ := np.AppOn(core); name != "ipv4cm" {
			t.Errorf("core %d runs %q after a.RollbackAll, want ipv4cm", core, name)
		}
	}
	if _, err := b.RollbackAll(); !errors.Is(err, ErrNothingRetained) {
		t.Errorf("b.RollbackAll with nothing retained: %v", err)
	}
}

// TestDomainRestrictedBatchAndStats: DrainBatchDomain runs only on the
// domain's cores, per-domain stat accounts partition the NP aggregate, and
// a fully-quarantined domain reports ErrNoCoreAvailable while its
// neighbors stay healthy.
func TestDomainRestrictedBatchAndStats(t *testing.T) {
	np := domainNP(t, 4)
	if err := np.SetDomains([]DomainSpec{
		{Name: "a", Cores: []int{0, 1}},
		{Name: "b", Cores: []int{2, 3}},
	}); err != nil {
		t.Fatal(err)
	}
	gen := packet.NewGenerator(7)
	batch := make([][]byte, 40)
	for i := range batch {
		batch[i] = gen.Next()
	}

	out, err := np.DrainBatchDomain("a", batch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Processed != 40 || out.Unprocessed != 0 {
		t.Fatalf("domain a drain: %+v", out)
	}
	a, b := view(t, np, "a"), view(t, np, "b")
	sa := a.Stats()
	sb := b.Stats()
	if sa.Processed != 40 {
		t.Errorf("domain a processed %d, want 40", sa.Processed)
	}
	if sb.Processed != 0 {
		t.Errorf("domain b processed %d packets of a's traffic", sb.Processed)
	}
	if agg := np.Stats(); agg.Processed != 40 {
		t.Errorf("aggregate processed %d, want 40", agg.Processed)
	}

	// Wedge domain a; b keeps draining, a reports no cores.
	for _, core := range []int{0, 1} {
		if err := a.Quarantine(core); err != nil {
			t.Fatal(err)
		}
	}
	if a.Healthy() {
		t.Error("domain a healthy with both cores quarantined")
	}
	if !b.Healthy() {
		t.Error("domain b lost health to a's quarantine")
	}
	if n := b.AvailableCores(); n != 2 {
		t.Errorf("domain b has %d available cores, want 2", n)
	}
	if _, err := np.DrainBatchDomain("a", batch, 0); !errors.Is(err, ErrNoCoreAvailable) {
		t.Errorf("drain on wedged domain: %v, want ErrNoCoreAvailable", err)
	}
	if out, err := np.DrainBatchDomain("b", batch, 0); err != nil || out.Processed != 40 {
		t.Errorf("domain b drain after a wedged: %+v, %v", out, err)
	}
	if _, err := np.DrainBatchDomain("ghost", batch, 0); !errors.Is(err, ErrUnknownDomain) {
		t.Errorf("drain on unknown domain: %v", err)
	}
	if _, err := np.Domain("ghost"); err == nil {
		t.Error("unknown domain reported healthy")
	}
}

// TestInstanceLabelsKeepSeriesDisjoint pins the metric-collision bug: two
// NPs sharing one obs.Collector used to write the same np_* and
// np_packet_cycles{core="N"} series. With distinct Config.Instance values
// every series carries an np="…" label, and traffic on one NP moves only
// its own series.
func TestInstanceLabelsKeepSeriesDisjoint(t *testing.T) {
	col := obs.New(64)
	mk := func(instance string) *NP {
		np, err := New(Config{Cores: 2, MonitorsEnabled: true, Obs: col, Instance: instance})
		if err != nil {
			t.Fatal(err)
		}
		bin, g := makeBundle(t, apps.IPv4CM(), 0xC0)
		if err := np.InstallAll("ipv4cm", bin, g, 0xC0); err != nil {
			t.Fatal(err)
		}
		return np
	}
	np0, np1 := mk("lc0"), mk("lc1")
	if np0.Instance() != "lc0" || np1.Instance() != "lc1" {
		t.Fatal("Instance() does not echo the config")
	}

	gen := packet.NewGenerator(3)
	for i := 0; i < 20; i++ {
		if _, err := np0.Process(gen.Next(), 0); err != nil {
			t.Fatal(err)
		}
	}

	snap := col.Registry().Snapshot()
	name0 := obs.Labeled("np_packets_processed_total", "np", "lc0")
	name1 := obs.Labeled("np_packets_processed_total", "np", "lc1")
	if got := snap.Counters[name0]; got != 20 {
		t.Errorf("%s = %d, want 20", name0, got)
	}
	if got := snap.Counters[name1]; got != 0 {
		t.Errorf("%s = %d after traffic on lc0 only, want 0", name1, got)
	}
	if _, ok := snap.Counters["np_packets_processed_total"]; ok {
		t.Error("bare (unlabeled) series present despite Instance being set")
	}
	// The per-core cycle histograms are disjoint too: installs on both NPs
	// register both series, but only lc0's accumulated observations.
	h0 := snap.Histograms[obs.Labeled("np_packet_cycles", "np", "lc0", "core", "0")]
	h1 := snap.Histograms[obs.Labeled("np_packet_cycles", "np", "lc1", "core", "0")]
	if h0.Count == 0 {
		t.Error("lc0 core-0 cycle histogram never observed")
	}
	if h1.Count != 0 {
		t.Errorf("lc1 core-0 cycle histogram observed %d packets of lc0's traffic", h1.Count)
	}

	// The byte-identical form of the same assertion, on the full slice.
	before := snap.FilterLabel("np", "lc1")
	for i := 0; i < 20; i++ {
		if _, err := np0.Process(gen.Next(), 0); err != nil {
			t.Fatal(err)
		}
	}
	after := col.Registry().Snapshot().FilterLabel("np", "lc1")
	if !snapshotsEqual(t, before, after) {
		t.Error("lc1's labeled slice moved under lc0's traffic")
	}
}

func snapshotsEqual(t *testing.T, a, b obs.Snapshot) bool {
	t.Helper()
	ja, err := a.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	return string(ja) == string(jb)
}

// TestDomainStatsFollowShardDrain: the domain account and the root
// aggregate stay consistent under the same batch engine the shard plane
// uses, including the reset on repartition.
func TestDomainStatsRepartitionResets(t *testing.T) {
	np := domainNP(t, 2)
	if err := np.SetDomains([]DomainSpec{{Name: "x", Cores: []int{0, 1}}}); err != nil {
		t.Fatal(err)
	}
	gen := packet.NewGenerator(11)
	batch := make([][]byte, 10)
	for i := range batch {
		batch[i] = gen.Next()
	}
	if _, err := np.DrainBatchDomain("x", batch, 0); err != nil {
		t.Fatal(err)
	}
	if s := view(t, np, "x").Stats(); s.Processed != 10 {
		t.Fatalf("domain x processed %d, want 10", s.Processed)
	}
	// Repartition: domain accounts reset, the NP aggregate survives.
	if err := np.SetDomains([]DomainSpec{{Name: "y", Cores: []int{0, 1}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := np.Domain("x"); !errors.Is(err, ErrUnknownDomain) {
		t.Error("stale domain still resolvable after repartition")
	}
	if s := view(t, np, "y").Stats(); s.Processed != 0 {
		t.Errorf("fresh domain y inherited %d processed packets", s.Processed)
	}
	if agg := np.Stats(); agg.Processed != 10 {
		t.Errorf("aggregate lost history across repartition: %d", agg.Processed)
	}
}

// TestStaleDomainViewRefused: a view resolved before SetDomains is bound
// to the partition it was resolved against. After a repartition — here one
// that hands the same cores to another domain — install, drain and stats
// through the old view are refused with ErrUnknownDomain, and nothing the
// old view asked for reaches the cores. The whole-NP view never goes stale.
func TestStaleDomainViewRefused(t *testing.T) {
	np := domainNP(t, 2)
	if err := np.SetDomains([]DomainSpec{{Name: "x", Cores: []int{0, 1}}}); err != nil {
		t.Fatal(err)
	}
	x := view(t, np, "x")
	if err := np.SetDomains([]DomainSpec{{Name: "y", Cores: []int{0, 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := x.Err(); !errors.Is(err, ErrUnknownDomain) {
		t.Errorf("stale view Err = %v, want ErrUnknownDomain", err)
	}

	bin, g := makeBundle(t, apps.UDPEcho(), 0xE2)
	if err := x.Install(0, "udpecho", bin, g, 0xE2); !errors.Is(err, ErrUnknownDomain) {
		t.Errorf("install through stale view: %v, want ErrUnknownDomain", err)
	}
	if err := x.InstallAll("udpecho", bin, g, 0xE2); !errors.Is(err, ErrUnknownDomain) {
		t.Errorf("install-all through stale view: %v, want ErrUnknownDomain", err)
	}
	for core := 0; core < 2; core++ {
		if name, _ := np.AppOn(core); name != "ipv4cm" {
			t.Errorf("core %d runs %q after a stale view's install", core, name)
		}
	}

	gen := packet.NewGenerator(13)
	batch := make([][]byte, 8)
	for i := range batch {
		batch[i] = gen.Next()
	}
	out, err := x.DrainBatch(batch, 0)
	if !errors.Is(err, ErrUnknownDomain) || out.Processed != 0 || out.Unprocessed != len(batch) {
		t.Errorf("drain through stale view: %+v, %v; want nothing run and ErrUnknownDomain", out, err)
	}
	if s := np.Stats(); s.Processed != 0 {
		t.Errorf("stale view's drain ran %d packets", s.Processed)
	}

	if _, err := view(t, np, "y").DrainBatch(batch, 0); err != nil {
		t.Fatal(err)
	}
	if s := x.Stats(); s != (Stats{}) {
		t.Errorf("stale view reads stats %+v, want none", s)
	}
	if x.Healthy() {
		t.Error("stale view reported healthy")
	}

	// The whole-NP view is bound to no partition.
	if err := np.Err(); err != nil {
		t.Errorf("whole-NP view Err = %v", err)
	}
	if out, err := np.DrainBatch(batch, 0); err != nil || out.Processed != uint64(len(batch)) {
		t.Errorf("whole-NP drain after repartition: %+v, %v", out, err)
	}
}

// TestRepartitionConcurrentWithDrains: SetDomains races drains, stats
// reads and health probes through views resolved on the fly. Every drain
// either runs in full on its view's partition or is refused whole with
// ErrUnknownDomain, so the NP aggregate counts exactly the packets that
// the successful drains report.
func TestRepartitionConcurrentWithDrains(t *testing.T) {
	np := domainNP(t, 2)
	gen := packet.NewGenerator(17)
	batch := make([][]byte, 8)
	for i := range batch {
		batch[i] = gen.Next()
	}
	var ran atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				d, err := np.Domain("x")
				if err != nil {
					continue // the current partition names y
				}
				out, err := d.DrainBatch(batch, 0)
				switch {
				case err == nil:
					ran.Add(out.Processed)
				case !errors.Is(err, ErrUnknownDomain) || out.Processed != 0:
					t.Errorf("drain during repartition: %+v, %v", out, err)
					return
				}
				_, _ = d.Stats(), d.Healthy()
			}
		}()
	}
	for i := 0; i < 200; i++ {
		name := "x"
		if i%3 == 2 {
			name = "y"
		}
		if err := np.SetDomains([]DomainSpec{{Name: name, Cores: []int{0, 1}}}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := np.Stats().Processed; got != ran.Load() {
		t.Errorf("aggregate processed %d, successful drains reported %d", got, ran.Load())
	}
}
