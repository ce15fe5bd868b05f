package tenant

// Tenant-isolation bench (EXPERIMENTS.md §E17): per-tenant throughput as
// the same silicon is split among 1, 2 and 4 tenants. Each tenant keeps
// the same private resources at every point — the same core count per NP,
// its own ingress lanes, its own monitoring graphs — so ideal isolation
// means per-tenant throughput that does not degrade as neighbors are
// added. The measurement is virtual-time, like the shard bench: a tenant's
// makespan is its slowest lane's busy cycles over its core count, and its
// throughput is its packet budget over that makespan at the modeled clock.
// Like the shard bench it is exact per seed. The plane is stepped
// (shard.Config.Stepped): every tenant's budget is offered before any card
// drains, then each card drains to empty in shard order, one batch per
// lane per round. A batch's queue depth — which ipv4cm reads for its
// congestion branch above apps.CMThreshold — is its lane's remaining
// backlog, fixed by this schedule rather than by worker timing.

import (
	"fmt"

	"sdmmon/internal/npu"
	"sdmmon/internal/packet"
	"sdmmon/internal/shard"
)

// IsolationConfig describes one isolation measurement point.
type IsolationConfig struct {
	App              string // "" selects ipv4cm
	Tenants          int
	Shards           int
	CoresPerTenant   int // per NP, per tenant
	PacketsPerTenant int
	Flows            int // flow population per tenant; 0 selects 64
	Seed             int64
	// ClockMHz models the hardware clock; 0 selects 100 MHz.
	ClockMHz float64
}

// IsolationPoint is one measured point of the tenant_isolation series.
type IsolationPoint struct {
	Tenants          int       `json:"tenants"`
	Shards           int       `json:"shards"`
	CoresPerTenant   int       `json:"cores_per_tenant"`
	PacketsPerTenant uint64    `json:"packets_per_tenant"`
	PerTenant        []float64 `json:"per_tenant_pkts_per_sec"`
	// MinPktsPerSec is the slowest tenant — the isolation headline: it
	// should track the single-tenant baseline, not divide by the tenant
	// count.
	MinPktsPerSec float64 `json:"min_pkts_per_sec"`
	// AggPktsPerSec is the whole plane's simulated aggregate.
	AggPktsPerSec float64 `json:"agg_pkts_per_sec"`
}

// benchPkt builds a deterministic UDP packet for one tenant and flow; the
// tenant index rides in the source address's second octet, which is what
// the bench classifier reads back.
func benchPkt(tenant int, flow uint16, payload []byte) ([]byte, error) {
	u := &packet.UDP{SrcPort: 1000 + flow, DstPort: 53, Payload: payload}
	p := &packet.IPv4{
		TTL: 64, Proto: packet.ProtoUDP,
		Src:     packet.IP(10, byte(tenant), byte(flow>>8), byte(flow)),
		Dst:     packet.IP(192, 168, 0, 1),
		Payload: u.Marshal(),
	}
	return p.Marshal()
}

// benchClassify reads the tenant index back out of the source address.
func benchClassify(pkt []byte) int {
	if len(pkt) < 20 {
		return -1
	}
	return int(pkt[13])
}

// MeasureIsolation runs one point: Tenants tenants, each owning
// CoresPerTenant cores on each of Shards NPs, each submitting
// PacketsPerTenant packets of its own flows, interleaved round-robin so
// every tenant contends for dispatch at once. The run must be loss-free
// and per-tenant conserved or the point is rejected.
func MeasureIsolation(cfg IsolationConfig) (IsolationPoint, error) {
	if cfg.Tenants < 1 || cfg.Shards < 1 || cfg.CoresPerTenant < 1 {
		return IsolationPoint{}, fmt.Errorf("tenant: bench needs tenants, shards, cores >= 1")
	}
	if cfg.PacketsPerTenant < 1 {
		cfg.PacketsPerTenant = 2048
	}
	flows := cfg.Flows
	if flows == 0 {
		flows = 64
	}
	clockHz := cfg.ClockMHz * 1e6
	if clockHz <= 0 {
		clockHz = 100e6
	}

	// Each tenant owns CoresPerTenant cores of every NP. NewBenchNP
	// pre-installs on every core, which SetDomains preserves, so the
	// domains are live without a per-tenant install; the isolation
	// property under test is dispatch and accounting, not provisioning.
	specs := make([]npu.DomainSpec, cfg.Tenants)
	names := make([]string, cfg.Tenants)
	for t := range specs {
		names[t] = fmt.Sprintf("t%d", t)
		specs[t] = npu.DomainSpec{Name: names[t]}
		for c := 0; c < cfg.CoresPerTenant; c++ {
			specs[t].Cores = append(specs[t].Cores, t*cfg.CoresPerTenant+c)
		}
	}
	nps := make([]*npu.NP, cfg.Shards)
	for i := range nps {
		np, err := npu.NewBenchNP(cfg.App, cfg.Tenants*cfg.CoresPerTenant, cfg.Seed+int64(i))
		if err != nil {
			return IsolationPoint{}, err
		}
		if err := np.SetDomains(specs); err != nil {
			return IsolationPoint{}, err
		}
		nps[i] = np
	}
	// Capacity covers each tenant's full budget and plane marking is
	// disabled, so the run is loss-free.
	plane, err := shard.NewPlane(shard.Config{
		NPs:           nps,
		QueueCapacity: cfg.PacketsPerTenant,
		MarkThreshold: cfg.PacketsPerTenant,
		Tenancy:       &shard.TenancyConfig{Tenants: names, Classify: benchClassify},
		Stepped:       true,
	})
	if err != nil {
		return IsolationPoint{}, err
	}

	payload := []byte("isolation-bench")
	total := cfg.Tenants * cfg.PacketsPerTenant
	pkts := make([][]byte, 0, total)
	for i := 0; i < cfg.PacketsPerTenant; i++ {
		for t := 0; t < cfg.Tenants; t++ {
			b, err := benchPkt(t, uint16((i*31+t)%flows), payload)
			if err != nil {
				return IsolationPoint{}, err
			}
			pkts = append(pkts, b)
		}
	}

	plane.SubmitBatch(pkts)
	plane.Close()

	st := plane.Stats()
	if !st.Conserved() {
		return IsolationPoint{}, fmt.Errorf("tenant: bench run not conserved")
	}
	if st.TailDrops != 0 || st.Starved != 0 || st.Backlog != 0 {
		return IsolationPoint{}, fmt.Errorf("tenant: bench run lost packets (tail=%d starved=%d backlog=%d)",
			st.TailDrops, st.Starved, st.Backlog)
	}

	p := IsolationPoint{
		Tenants:          cfg.Tenants,
		Shards:           cfg.Shards,
		CoresPerTenant:   cfg.CoresPerTenant,
		PacketsPerTenant: uint64(cfg.PacketsPerTenant),
		PerTenant:        make([]float64, cfg.Tenants),
	}
	lanes := plane.LaneCycles()
	var aggMakespan uint64
	for t := 0; t < cfg.Tenants; t++ {
		ts := st.Tenants[t]
		if !ts.Conserved() {
			return IsolationPoint{}, fmt.Errorf("tenant: %s not conserved in bench run", ts.Name)
		}
		var makespan uint64
		for s := 0; s < cfg.Shards; s++ {
			span := lanes[s][t] / uint64(cfg.CoresPerTenant)
			if span > makespan {
				makespan = span
			}
		}
		if makespan > 0 {
			p.PerTenant[t] = float64(ts.Forwarded+ts.AppDrops) * clockHz / float64(makespan)
		}
		if makespan > aggMakespan {
			aggMakespan = makespan
		}
		if t == 0 || p.PerTenant[t] < p.MinPktsPerSec {
			p.MinPktsPerSec = p.PerTenant[t]
		}
	}
	if aggMakespan > 0 {
		p.AggPktsPerSec = float64(st.Forwarded+st.AppDrops) * clockHz / float64(aggMakespan)
	}
	return p, nil
}
