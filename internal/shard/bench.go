package shard

import (
	"fmt"
	"sort"

	"sdmmon/internal/network"
	"sdmmon/internal/npu"
)

// BenchConfig describes one sharded-plane measurement point.
type BenchConfig struct {
	App           string // application name; "" selects ipv4cm
	Shards        int
	CoresPerShard int
	Batch         int // worker drain batch size
	Packets       int // packets submitted through the plane
	Flows         int // flow population; 0 selects 256
	Seed          int64
	// ClockMHz is the modeled hardware clock for the simulated aggregate
	// throughput; 0 selects 100 MHz (the Virtex-II Pro class prototype).
	ClockMHz float64
}

// BenchPoint is one point of the shard_scaling model series. Every number
// is virtual time (simulated cycles at the modeled clock), never host
// wall-clock.
type BenchPoint struct {
	Shards          int     `json:"shards"`
	CoresPerShard   int     `json:"cores"`
	Batch           int     `json:"batch"`
	Packets         uint64  `json:"packets"`
	SimCyclesPerPkt float64 `json:"sim_cycles_per_pkt"`
	// SimAggPktsPerSec is packets over the plane's virtual-time makespan:
	// the slowest shard's busy cycles over its core count, at the modeled
	// clock.
	SimAggPktsPerSec float64 `json:"sim_agg_pkts_per_sec"`
	// P99BatchCycles is the nearest-rank 99th-percentile per-batch cycle
	// cost (batch latency in virtual time).
	P99BatchCycles uint64 `json:"p99_batch_cycles"`
}

// MeasureThroughput runs one sharded point: K freshly installed NPs behind
// the dispatcher, the whole packet budget submitted and drained to
// completion.
//
// The throughput is the simulated hardware's aggregate, not host
// wall-clock (a small host timeshares the shards on its CPUs, so its wall
// throughput cannot scale with K): the plane's makespan in virtual time is
// the slowest shard's busy cycles divided by its core count (each NP's
// cores and each line card run concurrently in real hardware), and the
// aggregate is packets over that makespan at the modeled clock.
//
// The point is close to, but not exactly, deterministic per seed. The
// drain hands the lane's live backlog to the application as its queue
// depth, and ipv4cm takes its congestion-marking branch above
// apps.CMThreshold, so a packet's cycle cost depends on how far the
// submitter ran ahead of the shard worker. Ten runs of the BENCH_npu.json
// shape (seed 1, 20000 packets, 2-vCPU host) spread by 0.3% at 1 shard,
// 1.0% at 2 and 1.7% at 4 (14.54M–14.79M pps), but by 12.6% at 8 shards
// (27.76M–31.26M), where eight workers share the host's CPUs.
func MeasureThroughput(cfg BenchConfig) (BenchPoint, error) {
	if cfg.Shards < 1 || cfg.CoresPerShard < 1 {
		return BenchPoint{}, fmt.Errorf("shard: bench needs shards >= 1 and cores >= 1")
	}
	if cfg.Batch < 1 {
		cfg.Batch = 64
	}
	if cfg.Packets < 1 {
		cfg.Packets = 4096
	}
	flows := cfg.Flows
	if flows == 0 {
		flows = 256
	}
	clockHz := cfg.ClockMHz * 1e6
	if clockHz <= 0 {
		clockHz = 100e6
	}

	nps := make([]*npu.NP, cfg.Shards)
	for i := range nps {
		np, err := npu.NewBenchNP(cfg.App, cfg.CoresPerShard, cfg.Seed+int64(i))
		if err != nil {
			return BenchPoint{}, err
		}
		nps[i] = np
	}
	// Capacity covers the full budget and plane marking is disabled
	// (threshold = capacity): no tail drops and no marking drops, so every
	// run of a seed processes the identical packet set.
	plane, err := NewPlane(Config{
		NPs:               nps,
		QueueCapacity:     cfg.Packets,
		MarkThreshold:     cfg.Packets,
		BatchSize:         cfg.Batch,
		RecordBatchCycles: true,
	})
	if err != nil {
		return BenchPoint{}, err
	}
	gen, err := network.NewFlowGenerator(flows, cfg.Seed+101)
	if err != nil {
		return BenchPoint{}, err
	}
	pkts := gen.NextBatch(make([][]byte, cfg.Packets))

	plane.SubmitBatch(pkts)
	plane.Close()

	st := plane.Stats()
	if !st.Conserved() {
		return BenchPoint{}, fmt.Errorf("shard: bench run not conserved: %+v", st)
	}
	if st.TailDrops != 0 || st.Starved != 0 || st.Backlog != 0 {
		return BenchPoint{}, fmt.Errorf("shard: bench run lost packets (tail=%d starved=%d backlog=%d)",
			st.TailDrops, st.Starved, st.Backlog)
	}

	p := BenchPoint{
		Shards:        cfg.Shards,
		CoresPerShard: cfg.CoresPerShard,
		Batch:         cfg.Batch,
		Packets:       st.Forwarded + st.AppDrops,
	}
	var totalCycles, makespan uint64
	for _, s := range st.Shards {
		totalCycles += s.Cycles
		span := s.Cycles / uint64(cfg.CoresPerShard)
		if span > makespan {
			makespan = span
		}
	}
	if p.Packets > 0 {
		p.SimCyclesPerPkt = float64(totalCycles) / float64(p.Packets)
	}
	if makespan > 0 {
		p.SimAggPktsPerSec = float64(p.Packets) * clockHz / float64(makespan)
	}
	if bc := plane.BatchCycles(); len(bc) > 0 {
		sort.Slice(bc, func(i, j int) bool { return bc[i] < bc[j] })
		idx := (len(bc)*99+99)/100 - 1 // ceil(0.99 n) - 1: nearest-rank p99
		if idx < 0 {
			idx = 0
		}
		p.P99BatchCycles = bc[idx]
	}
	return p, nil
}
