package fleet

import (
	"errors"
	"fmt"
	"math"

	"sdmmon/internal/network"
	"sdmmon/internal/rollout"
	"sdmmon/internal/threat"
)

// Controller errors.
var (
	// ErrHalted: the rollout stopped on a failed health gate and the wave
	// was rolled back. A halted report is terminal — the fix ships as a
	// fresh release with a higher sequence, never as a resume.
	ErrHalted = errors.New("fleet: rollout halted by health gate")
	// ErrNotResumable: Resume was handed a halted or mismatched report.
	ErrNotResumable = errors.New("fleet: report is not resumable")
)

// maxLevel is the threat-engine ceiling of the wave gate: a post-wave level
// above it fails the gate.
const maxLevel = threat.Medium

// RolloutConfig drives one release through the fleet.
type RolloutConfig struct {
	// Gate.HealthPackets is the probe depth per router per window; 0
	// selects 32.
	Gate rollout.Gate
	// Policy bounds every per-router delivery (bundles and commands). The
	// zero value selects DefaultRetryPolicy without the per-router
	// deadline (virtual time, not wall time, is the budget here).
	Policy network.RetryPolicy
	// AfterCommit, when set, runs right after a router commits (fault
	// hooks: the badwave drill poisons wave-2 routers here). It must touch
	// only that router.
	AfterCommit func(r *SimRouter, wave int)
}

// waveFractions are the cumulative fleet fractions after the canary: the
// canonical canary → 1% → 25% → 100%.
var waveFractions = []float64{0.01, 0.25, 1.0}

// Controller drives wave-based rollouts over a fleet.
type Controller struct {
	f      *Fleet
	cfg    RolloutConfig
	engine *threat.Engine
	tick   threat.Tick
}

// NewController builds a controller with its own threat engine (record-only
// default configuration; the gate reads its level).
func NewController(f *Fleet, cfg RolloutConfig) (*Controller, error) {
	if cfg.Gate.HealthPackets == 0 {
		cfg.Gate.HealthPackets = 32
	}
	if cfg.Policy.MaxAttempts == 0 {
		cfg.Policy = network.DefaultRetryPolicy()
		cfg.Policy.DeadlineSeconds = 0
	}
	engine, err := threat.NewEngine(threat.DefaultEngineConfig())
	if err != nil {
		return nil, err
	}
	return &Controller{f: f, cfg: cfg, engine: engine}, nil
}

// waveOf maps a rollout-order router index to its wave: index 0 is the
// canary; the cumulative fractions cut the rest.
func waveOf(idx, n int) uint8 {
	if idx == 0 {
		return 0
	}
	for w, fr := range waveFractions {
		if idx < int(math.Ceil(fr*float64(n))) {
			return uint8(w + 1)
		}
	}
	return uint8(len(waveFractions))
}

// Run drives a fresh rollout: derive the rotation plan, build the release,
// and execute every wave. The returned report is also returned alongside
// ErrHalted so a failed gate still yields the full picture.
func (c *Controller) Run() (*FleetReport, error) {
	routers := c.f.Routers()
	ids := make([]string, len(routers))
	for i, r := range routers {
		ids[i] = r.ID
	}
	plan := NewRotationPlan(c.f.Seed, ids)
	man, wires, err := c.f.BuildRelease(plan)
	if err != nil {
		return nil, err
	}
	rep := &FleetReport{
		Seed:        c.f.Seed,
		Release:     man,
		Waves:       make([]WaveStatus, len(waveFractions)+1),
		GroupClocks: make([]float64, len(c.f.Groups)),
	}
	n := len(routers)
	for i, r := range routers {
		rep.Routers = append(rep.Routers, RouterRecord{ID: r.ID, Wave: waveOf(i, n)})
	}
	return c.execute(rep, wires)
}

// Resume continues a rollout from a decoded report: committed routers are
// never re-delivered, probe totals accumulate on top of the saved ones, and
// each group link's virtual clock picks up where the report left it (a
// partition window that was open at the save point is still honored).
func (c *Controller) Resume(rep *FleetReport) (*FleetReport, error) {
	if rep.Halted {
		return nil, fmt.Errorf("%w: halted rollout (ship a fresh release)", ErrNotResumable)
	}
	if rep.Seed != c.f.Seed {
		return nil, fmt.Errorf("%w: report seed %d, fleet seed %d", ErrNotResumable, rep.Seed, c.f.Seed)
	}
	if len(rep.GroupClocks) != len(c.f.Groups) {
		return nil, fmt.Errorf("%w: %d group clocks for %d groups", ErrNotResumable,
			len(rep.GroupClocks), len(c.f.Groups))
	}
	ids := make([]string, 0, len(rep.Routers))
	for i := range rep.Routers {
		rec := &rep.Routers[i]
		if c.f.Router(rec.ID) == nil {
			return nil, fmt.Errorf("%w: unknown router %q", ErrNotResumable, rec.ID)
		}
		if int(rec.Wave) >= len(rep.Waves) {
			return nil, fmt.Errorf("%w: router %q in wave %d of %d", ErrNotResumable, rec.ID, rec.Wave, len(rep.Waves))
		}
		ids = append(ids, rec.ID)
	}
	for g, clk := range rep.GroupClocks {
		c.f.Groups[g].Link.SetClock(clk)
	}
	// Re-derive the identical release: same rotation plan (pure function of
	// seed and IDs) under the report's manifest.
	plan := NewRotationPlan(c.f.Seed, ids)
	wires, err := c.f.releaseWires(rep.Release, plan)
	if err != nil {
		return nil, err
	}
	cp := *rep
	cp.Routers = append([]RouterRecord(nil), rep.Routers...)
	cp.Waves = append([]WaveStatus(nil), rep.Waves...)
	cp.GroupClocks = append([]float64(nil), rep.GroupClocks...)
	cp.Completed = false
	return c.execute(&cp, wires)
}

func add(dst *rollout.Sample, s rollout.Sample) {
	dst.Processed += s.Processed
	dst.Alarms += s.Alarms
	dst.Faults += s.Faults
}

// errNothingLive stops a rollout whose wave has no live router (e.g. the
// whole wave sat behind a partition) without judging later waves; the
// report stays resumable right there.
var errNothingLive = errors.New("fleet: nothing live in the wave")

// execute runs every wave that still has work, gating between waves. Every
// action crosses the router's group link — bundles and commands are retried
// over the lossy link — and every probe is the controller's own
// observation.
func (c *Controller) execute(rep *FleetReport, wires map[string][]byte) (*FleetReport, error) {
	commitWire := EncodeCommand(Command{Op: OpCommit, Manifest: rep.Release})
	rollbackWire := EncodeCommand(Command{Op: OpRollback, Manifest: rep.Release})
	cmdSeed := network.DeriveSeed(c.f.Seed, "commit-cmd")
	rbSeed := network.DeriveSeed(c.f.Seed, "rollback-cmd")

	groupOf := map[string]*Group{}
	for _, g := range c.f.Groups {
		for _, r := range g.Routers {
			groupOf[r.ID] = g
		}
	}
	routers := make([]*SimRouter, len(rep.Routers))
	groups := make([]*Group, len(rep.Routers))
	units := make([]rollout.Unit, len(rep.Routers))
	waves := make([][]int, len(rep.Waves))
	for i := range rep.Routers {
		rec := &rep.Routers[i]
		routers[i], groups[i] = c.f.Router(rec.ID), groupOf[rec.ID]
		units[i] = rollout.Unit{State: rec.State, Wave: int(rec.Wave)}
		waves[rec.Wave] = append(waves[rec.Wave], i)
	}

	// deliver sends one payload to router i over its group link and
	// charges the transmissions to its record and the fleet total.
	deliver := func(i int, wire []byte, seed int64, apply func([]byte) error) error {
		dr := network.DeliverReliable(groups[i].Link, routers[i].ID, wire, c.cfg.Policy, seed, apply)
		rep.Routers[i].Attempts += uint32(dr.Attempts)
		rep.TotalAttempts += uint64(dr.Attempts)
		if dr.Err != nil {
			rep.Routers[i].LastErr = dr.Err.Error()
		}
		return dr.Err
	}
	t := rollout.Target{
		// Probe pushes the probe window through the router. The
		// post-commit claim never reaches the gate; a claim diverging
		// from the controller's own observation marks the router
		// byzantine.
		Probe: func(i, _ int, post bool) (rollout.Sample, error) {
			observed, claimed := routers[i].Probe(c.cfg.Gate.HealthPackets)
			add(&rep.Probe, observed)
			if post && claimed != observed {
				rep.Routers[i].Byzantine = true
			}
			return observed, nil
		},
		Stage: func(i, _ int) error {
			return deliver(i, wires[routers[i].ID], c.f.Seed, routers[i].ApplyBundle)
		},
		// Commit fires the one-shot crash drill, sends the commit command
		// and runs the AfterCommit hook. A lost command leaves the bundle
		// staged unless the router lost it in the crash.
		Commit: func(i, wave int) error {
			r := routers[i]
			if r.crashAfterStage {
				r.crashAfterStage = false
				r.Crash()
			}
			if err := deliver(i, commitWire, cmdSeed, r.ApplyCommand); err != nil {
				if r.staged != nil {
					return fmt.Errorf("%w: %v", rollout.ErrStillStaged, err)
				}
				return err
			}
			rep.Routers[i].LastErr = ""
			if c.cfg.AfterCommit != nil {
				c.cfg.AfterCommit(r, wave)
			}
			return nil
		},
		// Rollback is retried exactly like the forward path. No Abort: a
		// bundle that never verified at the router staged nothing.
		Rollback: func(i int) error {
			return deliver(i, rollbackWire, rbSeed, routers[i].ApplyCommand)
		},
	}

	judge := func(w int, ran []int) error {
		// The wave gate judges only routers committed in this run, on the
		// controller's observed samples.
		var baseline, post rollout.Sample
		perGroup := map[int]*rollout.Sample{}
		var order []int // groups in rollout order
		live := 0
		for _, i := range ran {
			if units[i].State != rollout.Committed {
				continue
			}
			live++
			add(&baseline, units[i].Baseline)
			add(&post, units[i].After)
			g := groups[i].Index
			if perGroup[g] == nil {
				perGroup[g] = &rollout.Sample{}
				order = append(order, g)
			}
			add(perGroup[g], units[i].After)
		}
		switch {
		case live == 0 && len(ran) > 0 && len(ran) == len(waves[w]):
			return errNothingLive
		case live > 0:
			// One engine tick per judged wave: per-group alarm and fault
			// rates from the post-commit probes.
			var samples []threat.Sample
			for _, g := range order {
				gp := perGroup[g]
				samples = append(samples,
					threat.Sample{Shard: g, Core: -1, Signal: threat.SigAlarmRate,
						Value: float64(gp.Alarms) / float64(gp.Processed)},
					threat.Sample{Shard: g, Core: -1, Signal: threat.SigFaultRate,
						Value: float64(gp.Faults) / float64(gp.Processed)})
			}
			c.tick++
			if _, err := c.engine.Tick(c.tick, samples); err != nil {
				return err
			}
			if post.Rate() > baseline.Rate()+rollout.RateBudget || c.engine.Level() > maxLevel {
				// Roll only this wave back, over the same lossy links,
				// and halt.
				rollout.RollBack(t, units, ran)
				rep.Waves[w] = WaveRolledBack
				rep.Halted = true
				return ErrHalted
			}
		}
		rep.Waves[w] = WaveCommitted
		return nil
	}
	_, err := rollout.Run(t, units, waves, judge)
	for i := range units {
		rep.Routers[i].State = units[i].State
	}
	if errors.Is(err, errNothingLive) {
		err = nil
	}
	c.saveClocks(rep)
	rep.Completed = !rep.Halted && allCommitted(rep)
	return rep, err
}

func (c *Controller) saveClocks(rep *FleetReport) {
	for _, g := range c.f.Groups {
		rep.GroupClocks[g.Index] = g.Link.Clock()
	}
	var m float64
	for _, clk := range rep.GroupClocks {
		m = math.Max(m, clk)
	}
	rep.MakespanSeconds = m
}

func allCommitted(rep *FleetReport) bool {
	for i := range rep.Routers {
		if rep.Routers[i].State != rollout.Committed {
			return false
		}
	}
	return true
}
