package fleet

import (
	"fmt"

	"sdmmon/internal/fault"
	"sdmmon/internal/network"
	"sdmmon/internal/rollout"
)

// RolloutMeasurement summarizes one complete seeded rotation rollout — the
// makespan sweep behind EXPERIMENTS.md §14 and the fleet_rollout series in
// BENCH_npu.json. All times are virtual link-clock seconds.
type RolloutMeasurement struct {
	Routers           int     `json:"routers"`
	Groups            int     `json:"groups"`
	DropRate          float64 `json:"drop_rate"`
	MakespanSeconds   float64 `json:"makespan_seconds"`
	TotalAttempts     uint64  `json:"total_attempts"`
	AttemptsPerRouter float64 `json:"attempts_per_router"`
}

// MeasureRollout builds a fleet of the given size, runs the wave rollout to
// completion under the given management-link drop rate, and reports the
// makespan. Deterministic per (routers, drop, seed).
func MeasureRollout(routers int, drop float64, seed int64) (RolloutMeasurement, error) {
	var m RolloutMeasurement
	gs := routers / 8
	if gs < 8 {
		gs = 8
	}
	f, err := New(Config{
		Routers:   routers,
		GroupSize: gs,
		Seed:      seed,
		Faults:    fault.LinkFaults{DropRate: drop},
	})
	if err != nil {
		return m, err
	}
	ctl, err := NewController(f, RolloutConfig{
		Gate: rollout.Gate{HealthPackets: 8},
		Policy: network.RetryPolicy{
			MaxAttempts:        32,
			BaseBackoffSeconds: 0.1,
			MaxBackoffSeconds:  2,
			JitterFrac:         0.25,
		},
	})
	if err != nil {
		return m, err
	}
	rep, err := ctl.Run()
	if err != nil {
		return m, err
	}
	if !rep.Completed {
		return m, fmt.Errorf("fleet: measurement rollout did not complete (%d routers, %.0f%% drop)",
			routers, drop*100)
	}
	m = RolloutMeasurement{
		Routers:           routers,
		Groups:            len(f.Groups),
		DropRate:          drop,
		MakespanSeconds:   rep.MakespanSeconds,
		TotalAttempts:     rep.TotalAttempts,
		AttemptsPerRouter: float64(rep.TotalAttempts) / float64(routers),
	}
	return m, nil
}
