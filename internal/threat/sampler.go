package threat

import (
	"fmt"

	"sdmmon/internal/npu"
	"sdmmon/internal/obs"
	"sdmmon/internal/shard"
)

// Sampler turns the telemetry the plane already exports into per-tick
// threat samples by differencing successive snapshots:
//
//   - per-core alarm rate: monitor alarms per packet processed on the core,
//     from npu.MonitorStats and the core's np_packet_cycles histogram;
//   - per-core cycle-outlier rate: fraction of the core's packets whose
//     simulated cycle cost landed above OutlierAt;
//   - per-shard fault rate: architectural faults per processed packet, from
//     the NP's aggregate stats;
//   - per-shard ingress backpressure: tail drops plus CE marks per arrival,
//     from the plane's shard stats.
//
// Rates are deltas over the sampling interval, never cumulative averages —
// a burst must look like a burst, not be diluted by history. Alarm and
// packet counters can regress when a quarantined core is reinstalled (the
// monitor resets); deltas clamp at zero so a reset never reads as activity.
// Sample order is fixed (shards ascending, cores ascending, signal order
// within), which the byte-determinism of incident records relies on.
type Sampler struct {
	plane *shard.Plane
	nps   []*npu.NP
	// cyc[shard][core] is the per-core packet-cycle histogram resolved once
	// at construction (nil when that NP has no collector).
	cyc [][]*obs.Histogram
	// outlierBucket[shard][core] is the first histogram bucket index whose
	// samples count as outliers.
	outlierBucket [][]int

	prev samplerState
}

type samplerState struct {
	alarms  [][]uint64 // per shard, per core
	packets [][]uint64
	outlier [][]uint64
	faults  []uint64
	proc    []uint64
	tail    []uint64
	marked  []uint64
	arrived []uint64
}

// SamplerConfig configures a live sampler.
type SamplerConfig struct {
	// Plane is the traffic plane whose ingress stats feed the backpressure
	// signal; nil disables that signal (campaigns model their own queues).
	Plane *shard.Plane
	// NPs are the line cards, index = shard. The per-core signals read
	// each NP's own cycle histograms, so an NP built without a collector
	// contributes no per-core signal.
	NPs []*npu.NP
	// OutlierAt is the per-packet cycle cost above which a packet counts as
	// a cycle outlier; 0 selects 2048 (the default apps finish far below).
	OutlierAt float64
}

// NewSampler builds a sampler and primes its first snapshot, so the first
// Collect call already yields interval deltas.
func NewSampler(cfg SamplerConfig) (*Sampler, error) {
	if len(cfg.NPs) == 0 {
		return nil, fmt.Errorf("threat: sampler needs at least one NP")
	}
	if cfg.OutlierAt == 0 {
		cfg.OutlierAt = 2048
	}
	if cfg.OutlierAt < 0 {
		return nil, fmt.Errorf("threat: outlier bound %v must be > 0", cfg.OutlierAt)
	}
	s := &Sampler{plane: cfg.Plane, nps: cfg.NPs}
	s.cyc = make([][]*obs.Histogram, len(cfg.NPs))
	s.outlierBucket = make([][]int, len(cfg.NPs))
	for i, np := range cfg.NPs {
		if np == nil {
			return nil, fmt.Errorf("threat: NP %d is nil", i)
		}
		cores := np.Cores()
		s.cyc[i] = make([]*obs.Histogram, cores)
		s.outlierBucket[i] = make([]int, cores)
		for c := 0; c < cores; c++ {
			s.cyc[i][c] = np.CycleHistogram(c)
			// First bucket whose samples exceed the bound: bounds are
			// inclusive upper edges, so bucket b holds samples <= Bounds[b].
			b := 0
			for b < len(obs.CycleBuckets) && obs.CycleBuckets[b] <= cfg.OutlierAt {
				b++
			}
			s.outlierBucket[i][c] = b
		}
	}
	s.prev = s.snapshot()
	return s, nil
}

// snapshot reads every counter the sampler differences.
func (s *Sampler) snapshot() samplerState {
	n := len(s.nps)
	st := samplerState{
		alarms: make([][]uint64, n), packets: make([][]uint64, n),
		outlier: make([][]uint64, n),
		faults:  make([]uint64, n), proc: make([]uint64, n),
		tail: make([]uint64, n), marked: make([]uint64, n),
		arrived: make([]uint64, n),
	}
	for i, np := range s.nps {
		cores := np.Cores()
		st.alarms[i] = make([]uint64, cores)
		st.packets[i] = make([]uint64, cores)
		st.outlier[i] = make([]uint64, cores)
		for c := 0; c < cores; c++ {
			if _, alarms, _, err := np.MonitorStats(c); err == nil {
				st.alarms[i][c] = alarms
			}
			h := s.cyc[i][c]
			st.packets[i][c] = h.Count()
			counts := h.BucketCounts()
			for b := s.outlierBucket[i][c]; b < len(counts); b++ {
				st.outlier[i][c] += counts[b]
			}
		}
		nst := np.Stats()
		st.faults[i] = nst.Faults
		st.proc[i] = nst.Processed
	}
	if s.plane != nil {
		ps := s.plane.Stats()
		for _, sh := range ps.Shards {
			if sh.Shard < len(s.nps) {
				st.tail[sh.Shard] = sh.TailDrops
				st.marked[sh.Shard] = sh.Marked
				st.arrived[sh.Shard] = sh.Arrived
			}
		}
	}
	return st
}

// delta is new-minus-old clamped at zero (counters regress on reinstall).
func delta(cur, prev uint64) uint64 {
	if cur < prev {
		return 0
	}
	return cur - prev
}

// rate is num/den with an empty interval reading as quiet, not NaN.
func rate(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Collect snapshots the plane and returns this interval's samples in the
// fixed deterministic order.
func (s *Sampler) Collect() []Sample {
	cur := s.snapshot()
	var out []Sample
	for i := range s.nps {
		for c := range cur.alarms[i] {
			pk := delta(cur.packets[i][c], s.prev.packets[i][c])
			out = append(out,
				Sample{Shard: i, Core: c, Signal: SigAlarmRate,
					Value: rate(delta(cur.alarms[i][c], s.prev.alarms[i][c]), pk)},
				Sample{Shard: i, Core: c, Signal: SigCycleOutlier,
					Value: rate(delta(cur.outlier[i][c], s.prev.outlier[i][c]), pk)},
			)
		}
		out = append(out, Sample{Shard: i, Core: -1, Signal: SigFaultRate,
			Value: rate(delta(cur.faults[i], s.prev.faults[i]), delta(cur.proc[i], s.prev.proc[i]))})
		if s.plane != nil {
			press := delta(cur.tail[i], s.prev.tail[i]) + delta(cur.marked[i], s.prev.marked[i])
			out = append(out, Sample{Shard: i, Core: -1, Signal: SigBackpressure,
				Value: rate(press, delta(cur.arrived[i], s.prev.arrived[i]))})
		}
	}
	s.prev = cur
	return out
}
