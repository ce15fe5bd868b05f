package main

import (
	"errors"
	"fmt"

	"sdmmon/internal/fault"
	"sdmmon/internal/fleet"
	"sdmmon/internal/network"
	"sdmmon/internal/rollout"
)

// runFleet drives the hierarchical control-plane drills: a clean wave-based
// rotation rollout, a partitioned group that is healed and resumed from the
// saved report, and a regressing wave the health gate halts and rolls back.
// Every scenario is self-asserting and deterministic per seed.
func runFleet(scenario string, routers int, seed int64) error {
	if routers < 64 {
		routers = 64 // the drills need populated waves and several groups
	}
	scenarios := map[string]func(int, int64) error{
		"clean":     fleetClean,
		"partition": fleetPartition,
		"badwave":   fleetBadWave,
	}
	if scenario == "all" {
		for _, name := range []string{"clean", "partition", "badwave"} {
			if err := scenarios[name](routers, seed); err != nil {
				return &scenarioError{Mode: "fleet", Scenario: name, Err: err}
			}
		}
		return nil
	}
	fn, ok := scenarios[scenario]
	if !ok {
		return fmt.Errorf("unknown fleet scenario %q (want clean, partition, badwave, or all)", scenario)
	}
	if err := fn(routers, seed); err != nil {
		return &scenarioError{Mode: "fleet", Scenario: scenario, Err: err}
	}
	return nil
}

// fleetDrillConfig sizes groups so every drill has several aggregation
// domains, and keeps retry budgets small so partitioned waves fail fast.
func fleetDrillConfig(routers int, seed int64) (fleet.Config, fleet.RolloutConfig) {
	gs := routers / 8
	if gs < 8 {
		gs = 8
	}
	cfg := fleet.Config{
		Routers:   routers,
		GroupSize: gs,
		Seed:      seed,
		Faults:    fault.LinkFaults{DropRate: 0.05, CorruptRate: 0.02},
	}
	rcfg := fleet.RolloutConfig{
		Gate: rollout.Gate{HealthPackets: 8},
		Policy: network.RetryPolicy{
			MaxAttempts:        8,
			BaseBackoffSeconds: 0.1,
			MaxBackoffSeconds:  2,
			JitterFrac:         0.25,
		},
	}
	return cfg, rcfg
}

func printFleetReport(rep *fleet.FleetReport) {
	states := map[rollout.State]int{}
	for i := range rep.Routers {
		states[rep.Routers[i].State]++
	}
	fmt.Printf("  release=%s completed=%v halted=%v makespan=%.2fs attempts=%d\n",
		rep.Release.Version, rep.Completed, rep.Halted, rep.MakespanSeconds, rep.TotalAttempts)
	for w, st := range rep.Waves {
		fmt.Printf("    wave %d: %s\n", w, st)
	}
	for st := rollout.State(0); st < rollout.NumStates; st++ {
		if states[st] > 0 {
			fmt.Printf("    %d routers %s\n", states[st], st)
		}
	}
}

// fleetClean runs the rotation rollout to completion and checks the
// rotation invariant: afterwards no two routers share a hash parameter.
func fleetClean(routers int, seed int64) error {
	cfg, rcfg := fleetDrillConfig(routers, seed)
	fmt.Printf("fleet clean: %d routers in groups of %d, 5%% drop / 2%% corrupt\n",
		cfg.Routers, cfg.GroupSize)
	f, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	ctl, err := fleet.NewController(f, rcfg)
	if err != nil {
		return err
	}
	rep, err := ctl.Run()
	if err != nil {
		return err
	}
	printFleetReport(rep)
	if !rep.Completed {
		return fmt.Errorf("clean rollout did not complete")
	}
	seen := map[uint32]string{}
	for id, p := range f.LiveParams() {
		if other, dup := seen[p]; dup {
			return fmt.Errorf("rotation invariant violated: %s and %s share parameter %#x", id, other, p)
		}
		seen[p] = id
	}
	if len(seen) != routers {
		return fmt.Errorf("%d live parameters for %d routers", len(seen), routers)
	}
	fmt.Printf("  rotation invariant: %d pairwise-distinct hash parameters\n", len(seen))
	return nil
}

// fleetPartition cuts one group's backhaul for the whole first run, then
// heals it and resumes from the serialized report: stragglers recover,
// committed routers are not re-delivered.
func fleetPartition(routers int, seed int64) error {
	cfg, rcfg := fleetDrillConfig(routers, seed)
	groups := (cfg.Routers + cfg.GroupSize - 1) / cfg.GroupSize
	cut := groups / 2
	cfg.Partitions = map[int][]fault.PartitionLink{cut: {{Start: 0, End: 1e12}}}
	fmt.Printf("fleet partition: %d routers in %d groups, group %d's backhaul cut\n",
		cfg.Routers, groups, cut)
	f, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	ctl, err := fleet.NewController(f, rcfg)
	if err != nil {
		return err
	}
	rep, err := ctl.Run()
	if err != nil {
		return err
	}
	printFleetReport(rep)
	if rep.Completed {
		return fmt.Errorf("rollout claims completion with a partitioned group")
	}
	unreachable := 0
	for i := range rep.Routers {
		if rep.Routers[i].State == rollout.Failed {
			unreachable++
		}
	}
	if want := len(f.Groups[cut].Routers); unreachable != want {
		return fmt.Errorf("%d unreachable routers, want the partitioned group's %d", unreachable, want)
	}

	// Controller restart: serialize, decode, heal the backhaul, resume.
	decoded, err := fleet.UnmarshalFleetReport(rep.Marshal())
	if err != nil {
		return err
	}
	f.Groups[cut].Link.Partitions = nil
	ctl2, err := fleet.NewController(f, rcfg)
	if err != nil {
		return err
	}
	final, err := ctl2.Resume(decoded)
	if err != nil {
		return err
	}
	fmt.Printf("  backhaul healed, resumed from the saved report:\n")
	printFleetReport(final)
	if !final.Completed {
		return fmt.Errorf("resumed rollout did not complete")
	}
	for i := range final.Routers {
		if final.Routers[i].State != rollout.Committed {
			return fmt.Errorf("%s not committed after resume: %s",
				final.Routers[i].ID, final.Routers[i].State)
		}
	}
	return nil
}

// fleetBadWave poisons every router the second full wave commits; the
// health gate must halt the rollout and roll exactly that wave back,
// leaving the canary and wave 1 committed on their rotated parameters.
func fleetBadWave(routers int, seed int64) error {
	cfg, rcfg := fleetDrillConfig(routers, seed)
	fmt.Printf("fleet badwave: %d routers, wave 2 regresses after commit\n", cfg.Routers)
	f, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	initial, _ := f.Routers()[0].LiveParam()
	rcfg.AfterCommit = func(r *fleet.SimRouter, wave int) {
		if wave == 2 {
			poisonFleetRouter(f, r)
		}
	}
	ctl, err := fleet.NewController(f, rcfg)
	if err != nil {
		return err
	}
	rep, err := ctl.Run()
	if !errors.Is(err, fleet.ErrHalted) {
		return fmt.Errorf("regressing wave did not halt the rollout: %v", err)
	}
	printFleetReport(rep)
	if rep.Waves[0] != fleet.WaveCommitted || rep.Waves[1] != fleet.WaveCommitted {
		return fmt.Errorf("canary/wave-1 not committed: %s %s", rep.Waves[0], rep.Waves[1])
	}
	if rep.Waves[2] != fleet.WaveRolledBack {
		return fmt.Errorf("wave 2 status %s, want rolled-back", rep.Waves[2])
	}
	if rep.Waves[3] != fleet.WavePending {
		return fmt.Errorf("wave 3 status %s, want pending", rep.Waves[3])
	}
	for i := range rep.Routers {
		rec := &rep.Routers[i]
		if rec.Wave != 2 {
			continue
		}
		if rec.State != rollout.RolledBack {
			return fmt.Errorf("%s (wave 2) state %s, want rolled-back", rec.ID, rec.State)
		}
		if p, _ := f.Router(rec.ID).LiveParam(); p != initial {
			return fmt.Errorf("%s rolled back but parameter %#x != initial %#x", rec.ID, p, initial)
		}
	}
	fmt.Printf("  wave 2 rolled back to the initial image; earlier waves stay committed\n")
	return nil
}

// poisonFleetRouter injects a persistent instruction-store fault into the
// router's live core — the post-commit regression the gate exists to catch.
func poisonFleetRouter(f *fleet.Fleet, r *fleet.SimRouter) {
	c, err := r.NP.Core(0)
	if err != nil {
		panic(fmt.Sprintf("poison %s: %v", r.ID, err))
	}
	inj := fault.New(network.DeriveSeed(f.Seed, "poison-"+r.ID))
	words := c.Program().CodeWords()
	if !inj.Poison(c, words[1].Addr) {
		panic(fmt.Sprintf("poison of %s failed", r.ID))
	}
}
