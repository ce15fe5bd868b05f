package campaign

import (
	"cmp"
	"fmt"
	"sort"

	"sdmmon/internal/apps"
	"sdmmon/internal/attack"
	"sdmmon/internal/fleet"
	"sdmmon/internal/isa"
	"sdmmon/internal/mhash"
)

// The fleet-wide evasion drill: crack one router's hash parameter with a
// budgeted collision search, replay the winning store variant against the
// whole fleet before and after a hash-parameter rotation, and measure how
// rotation collapses the transfer rate. Pre-rotation the fleet is
// homogeneous — the paper's deployment — so one found collision owns every
// router; post-rotation each router holds a fresh parameter and the
// variant transfers only where it happens to collide again (≈1/16 under
// the 4-bit S-box compression). Fresh per-router searches then price the
// attacker's post-rotation cost in probes.

// FleetDrillConfig sizes the drill.
type FleetDrillConfig struct {
	Routers int   // fleet size; 0 selects 24
	Seed    int64 // drives the fleet build, variant order, and search order
	// ProbeBudget caps every collision search (attack.SearchBudget
	// MaxProbes semantics); 0 selects 256.
	ProbeBudget int
}

// FleetDrillResult is the drill's deterministic summary.
type FleetDrillResult struct {
	Routers     int   `json:"routers"`
	Seed        int64 `json:"seed"`
	ProbeBudget int   `json:"probe_budget"`

	// CrackAttempts is the probes spent cracking router 0 pre-rotation.
	CrackAttempts int    `json:"crack_attempts"`
	CrackCycles   uint64 `json:"crack_cycles"`

	// PreTransfer / PostTransfer count routers (out of Routers) the cracked
	// variant compromises when replayed before and after rotation.
	PreTransfer  int `json:"pre_transfer"`
	PostTransfer int `json:"post_transfer"`

	// Post-rotation per-router fresh searches: probes-to-success
	// distribution (nearest rank) and how many searches exhausted the
	// budget instead of succeeding.
	SearchP50       int `json:"search_p50"`
	SearchP99       int `json:"search_p99"`
	SearchExhausted int `json:"search_exhausted"`

	RotatedRouters int `json:"rotated_routers"`
}

// CollisionFleetDrill runs the pre/post-rotation evasion drill.
func CollisionFleetDrill(cfg FleetDrillConfig) (*FleetDrillResult, error) {
	cfg.Routers = cmp.Or(cfg.Routers, 24)
	cfg.ProbeBudget = cmp.Or(cfg.ProbeBudget, 256)
	res := &FleetDrillResult{Routers: cfg.Routers, Seed: cfg.Seed, ProbeBudget: cfg.ProbeBudget,
		SearchP50: -1, SearchP99: -1}

	f, err := fleet.New(fleet.Config{
		Routers:     cfg.Routers,
		GroupSize:   8,
		Seed:        cfg.Seed,
		Compression: mhash.SBoxCompress(),
	})
	if err != nil {
		return nil, err
	}
	routers := f.Routers()
	smash := attack.DefaultSmash()
	budget := attack.SearchBudget{MaxProbes: cfg.ProbeBudget}

	// Phase 1: crack the canary's parameter with a seeded-order search.
	variants := smash.PersistVariants()
	newRNG(cfg.Seed, "fleet-drill-crack").shuffleWords(variants)
	crack, stats, err := smash.SearchPersist(routerOracle(routers[0]), budget, variants)
	if err != nil {
		return nil, err
	}
	res.CrackAttempts = stats.Attempts
	res.CrackCycles = stats.Cycles
	if !crack.Succeeded {
		// The budget priced the attacker out on the canary itself — a legal
		// (if rare) outcome; the transfer phases are then vacuous.
		return res, nil
	}
	winner := variants[crack.Probes-1]
	pkt, err := smash.CraftPacket([]isa.Word{winner})
	if err != nil {
		return nil, err
	}

	// Phase 2: replay the winner fleet-wide before rotation.
	res.PreTransfer, err = replayAgainst(routers, pkt)
	if err != nil {
		return nil, err
	}

	// Phase 3: rotate every router to a fresh parameter via the control
	// plane's staged rollout.
	ctl, err := fleet.NewController(f, fleet.RolloutConfig{})
	if err != nil {
		return nil, err
	}
	rep, err := ctl.Run()
	if err != nil {
		return nil, err
	}
	res.RotatedRouters = len(rep.Routers)

	// Phase 4: replay the same winner against the rotated fleet.
	res.PostTransfer, err = replayAgainst(routers, pkt)
	if err != nil {
		return nil, err
	}

	// Phase 5: per-router fresh searches price the post-rotation attack.
	var probes []int
	for _, r := range routers {
		vs := smash.PersistVariants()
		newRNG(cfg.Seed, "fleet-drill-"+r.ID).shuffleWords(vs)
		br, _, err := smash.SearchPersist(routerOracle(r), budget, vs)
		if err != nil {
			return nil, err
		}
		if br.Succeeded {
			probes = append(probes, br.Probes)
		} else {
			res.SearchExhausted++
		}
	}
	if len(probes) > 0 {
		sort.Ints(probes)
		res.SearchP50 = int(nearestRank(toInt64(probes), 0.50))
		res.SearchP99 = int(nearestRank(toInt64(probes), 0.99))
	}
	return res, nil
}

// routerOracle probes one fleet router: process the packet on its single
// core, report whether the persistent store landed, and scrub between
// probes so each variant is judged alone.
func routerOracle(r *fleet.SimRouter) attack.CostedOracle {
	return func(pkt []byte) (bool, uint64, error) {
		res, err := r.NP.ProcessOn(0, pkt, 0)
		if err != nil {
			return false, 0, err
		}
		hit, err := attack.PersistSucceeded(r.NP, 0)
		if err != nil {
			return false, res.Cycles, err
		}
		if hit {
			if err := scrubRouter(r); err != nil {
				return false, res.Cycles, err
			}
			return true, res.Cycles, nil
		}
		return false, res.Cycles, scrubRouter(r)
	}
}

func replayAgainst(routers []*fleet.SimRouter, pkt []byte) (int, error) {
	transfers := 0
	for _, r := range routers {
		if _, err := r.NP.ProcessOn(0, pkt, 0); err != nil {
			return transfers, err
		}
		hit, err := attack.PersistSucceeded(r.NP, 0)
		if err != nil {
			return transfers, err
		}
		if hit {
			transfers++
		}
		if err := scrubRouter(r); err != nil {
			return transfers, err
		}
	}
	return transfers, nil
}

func scrubRouter(r *fleet.SimRouter) error {
	core, err := r.NP.Core(0)
	if err != nil {
		return err
	}
	core.Mem().WriteBytes(uint32(apps.ScratchBase), make([]byte, 2048))
	return nil
}

func toInt64(v []int) []int64 {
	out := make([]int64, len(v))
	for i, x := range v {
		out[i] = int64(x)
	}
	return out
}

// Checks for the drill: pre-rotation the homogeneous fleet transfers
// everywhere; post-rotation containment collapses the transfer count.
func (r *FleetDrillResult) Check() error {
	if r.CrackAttempts == 0 {
		return fmt.Errorf("fleet drill: no probes spent")
	}
	if r.CrackAttempts > r.ProbeBudget {
		return fmt.Errorf("fleet drill: crack spent %d probes over budget %d",
			r.CrackAttempts, r.ProbeBudget)
	}
	if r.PreTransfer == 0 {
		return nil // cracked nothing: the remaining assertions are vacuous
	}
	if r.PreTransfer != r.Routers {
		return fmt.Errorf("fleet drill: pre-rotation transfer %d/%d, want full homogeneous spread",
			r.PreTransfer, r.Routers)
	}
	if r.RotatedRouters != r.Routers {
		return fmt.Errorf("fleet drill: rotation covered %d/%d routers", r.RotatedRouters, r.Routers)
	}
	if r.PostTransfer >= r.PreTransfer/2 {
		return fmt.Errorf("fleet drill: post-rotation transfer %d of %d — rotation bought no containment",
			r.PostTransfer, r.PreTransfer)
	}
	return nil
}
