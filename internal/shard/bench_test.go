package shard

import "testing"

// TestShardScalingGate is the perf gate of the sharded plane: the simulated
// aggregate throughput at 4 shards must be at least 1.6x the 1-shard plane
// of the same per-shard shape. The number is virtual-time (per-shard busy
// cycles over the modeled clock), so the host's core count does not enter
// it. It is not bit-exact per seed: ipv4cm's congestion branch reads the
// live lane depth at drain time, so cycle counts move with worker timing
// (see MeasureThroughput). Ten runs on a 2-vCPU host read 3.20x–3.29x,
// far above the 1.6x floor.
func TestShardScalingGate(t *testing.T) {
	point := func(shards int) float64 {
		p, err := MeasureThroughput(BenchConfig{
			Shards:        shards,
			CoresPerShard: 2,
			Batch:         64,
			Packets:       2048,
			Flows:         256,
			Seed:          11,
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if p.SimAggPktsPerSec <= 0 {
			t.Fatalf("shards=%d: no simulated throughput", shards)
		}
		if p.Shards != shards {
			t.Fatalf("shards=%d: mislabeled point %+v", shards, p)
		}
		return p.SimAggPktsPerSec
	}
	one := point(1)
	four := point(4)
	speedup := four / one
	t.Logf("1 shard %.0f pps, 4 shards %.0f pps (sim aggregate): %.2fx", one, four, speedup)
	if speedup < 1.6 {
		t.Fatalf("4-shard aggregate %.2fx the 1-shard plane; gate requires >= 1.6x", speedup)
	}
}
