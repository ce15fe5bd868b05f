package main

// npsim -bench: regenerates BENCH_npu.json, the virtual-time model series.
// Every number in it is simulated cycles or virtual link-seconds, never
// host wall-clock; bench/ (bash bench/run.sh) measures the wall-clock
// plane.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"sdmmon/internal/campaign"
	"sdmmon/internal/fleet"
	"sdmmon/internal/shard"
	"sdmmon/internal/tenant"
)

// benchPackets is the packet budget of a shard_scaling point; a
// tenant_isolation point gives each tenant a quarter of it.
const benchPackets = 20000

// benchReport is the BENCH_npu.json document.
type benchReport struct {
	Source     string `json:"source"`
	App        string `json:"app"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	// ShardScaling maps "shards=K/cores=C/batch=B" to the sharded plane's
	// simulated aggregate at that size (see shard.MeasureThroughput); the
	// scaling is each point's aggregate over the shards=1 point's.
	ShardScaling map[string]shard.BenchPoint `json:"shard_scaling"`
	// TenantIsolation maps "tenants=N" to per-tenant throughput on a
	// partitioned plane (see tenant.MeasureIsolation); isolation holds
	// while the slowest tenant stays near the tenants=1 point's.
	TenantIsolation map[string]tenant.IsolationPoint `json:"tenant_isolation"`
	// FleetRollout maps "routers=N/loss=P%" to one control-plane rotation
	// rollout (see fleet.MeasureRollout).
	FleetRollout map[string]fleet.RolloutMeasurement `json:"fleet_rollout"`
	// CampaignDetection maps an attack family to its packets-to-detection
	// distribution over a seed sweep (see campaign.MeasureDetection).
	CampaignDetection map[string]campaign.DetectionDistribution `json:"campaign_detection"`
}

// runBench measures the four model series and writes them to out.
func runBench(appName string, seed int64, out string) error {
	r := benchReport{
		Source: "npsim -bench", App: appName,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		ShardScaling:      map[string]shard.BenchPoint{},
		TenantIsolation:   map[string]tenant.IsolationPoint{},
		FleetRollout:      map[string]fleet.RolloutMeasurement{},
		CampaignDetection: map[string]campaign.DetectionDistribution{},
	}
	fmt.Printf("npsim bench: virtual-time model series, %s, seed %d\n", appName, seed)

	// Line-card scaling of the sharded plane. See internal/shard and
	// EXPERIMENTS.md "Sharded traffic plane scaling".
	fmt.Printf("%-30s %14s %10s %14s\n", "shard scaling", "sim agg pps", "scaling", "p99 batch cyc")
	var oneShard float64
	for _, shards := range []int{1, 2, 4, 8} {
		p, err := shard.MeasureThroughput(shard.BenchConfig{
			App: appName, Shards: shards, CoresPerShard: 2, Batch: 256,
			Packets: benchPackets, Flows: 256, Seed: seed,
		})
		if err != nil {
			return err
		}
		if shards == 1 {
			oneShard = p.SimAggPktsPerSec
		}
		key := fmt.Sprintf("shards=%d/cores=%d/batch=%d", p.Shards, p.CoresPerShard, p.Batch)
		r.ShardScaling[key] = p
		fmt.Printf("%-30s %14.0f %9.2fx %14d\n", key, p.SimAggPktsPerSec, p.SimAggPktsPerSec/oneShard, p.P99BatchCycles)
	}

	// Tenant isolation: the slowest tenant's throughput as the plane is
	// split among 1/2/4 tenants. See internal/tenant and EXPERIMENTS.md
	// §E17.
	fmt.Printf("%-30s %14s %14s %10s\n", "tenant isolation", "min pkts/sec", "agg pkts/sec", "min/base")
	var baseline float64
	for _, tenants := range []int{1, 2, 4} {
		p, err := tenant.MeasureIsolation(tenant.IsolationConfig{
			App: appName, Tenants: tenants, Shards: 2, CoresPerTenant: 2,
			PacketsPerTenant: benchPackets / 4, Seed: seed,
		})
		if err != nil {
			return err
		}
		if tenants == 1 {
			baseline = p.MinPktsPerSec
		}
		key := fmt.Sprintf("tenants=%d", tenants)
		r.TenantIsolation[key] = p
		fmt.Printf("%-30s %14.0f %14.0f %9.2fx\n", key, p.MinPktsPerSec, p.AggPktsPerSec, p.MinPktsPerSec/baseline)
	}

	// The control plane's makespan over fleet size and management-link
	// loss, in virtual link-seconds. See internal/fleet and EXPERIMENTS.md
	// §E14.
	fmt.Printf("%-30s %6s %14s %10s %16s\n", "fleet rollout", "groups", "makespan(s)", "attempts", "attempts/router")
	for _, routers := range []int{100, 300, 1000} {
		for _, drop := range []float64{0, 0.05, 0.15} {
			m, err := fleet.MeasureRollout(routers, drop, seed)
			if err != nil {
				return err
			}
			key := fmt.Sprintf("routers=%d/loss=%.0f%%", m.Routers, m.DropRate*100)
			r.FleetRollout[key] = m
			fmt.Printf("%-30s %6d %14.2f %10d %16.2f\n",
				key, m.Groups, m.MakespanSeconds, m.TotalAttempts, m.AttemptsPerRouter)
		}
	}

	// Packets-to-detection of the adversarial campaign corpus, per family,
	// over a seed sweep. See internal/campaign and EXPERIMENTS.md §E15.
	fmt.Printf("%-30s %8s %10s %10s %14s\n", "campaign family", "detected", "p50 pkts", "p99 pkts", "mean evasion")
	for _, family := range campaign.Families() {
		d, err := campaign.MeasureDetection(family, campaignSweepSeeds, seed)
		if err != nil {
			return err
		}
		r.CampaignDetection[family] = d
		fmt.Printf("%-30s %4d/%-3d %10d %10d %14.1f\n",
			family, d.Detected, d.Runs, d.P50, d.P99, d.MeanEvasionDepth)
	}

	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}
