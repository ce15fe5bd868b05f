package network

import (
	"errors"
	"fmt"

	"sdmmon/internal/apps"
	"sdmmon/internal/core"
	"sdmmon/internal/obs"
	"sdmmon/internal/packet"
	"sdmmon/internal/rollout"
	"sdmmon/internal/timing"
)

// Staged fleet rollout (DESIGN.md §10): upgrading a fleet of routers that are
// forwarding live traffic must not take the data plane down — neither by the
// upgrade mechanics (solved by the NP's stage/commit path, which cuts over at
// a packet boundary) nor by the new version itself being bad (solved by the
// internal/rollout engine driven from here: the canary commits first, the
// per-router gate compares each router's alarm/fault rate against its own
// pre-upgrade baseline, and a regression rolls the whole fleet back to the
// retained previous version). Delivery failures are not regressions: a
// router the lossy management network never reached is reported Failed and
// the rollout is resumable, while the routers that did upgrade stay
// upgraded.

// Rollout-level errors.
var (
	// ErrCanaryDelivery: a canary could not be reached/verified, so nothing
	// was committed anywhere.
	ErrCanaryDelivery = errors.New("network: canary delivery failed")
	// ErrHealthRegression: an upgraded router regressed against its
	// baseline; the fleet was rolled back.
	ErrHealthRegression = errors.New("network: health regression after upgrade")
)

// RolloutConfig shapes a staged fleet upgrade.
type RolloutConfig struct {
	Policy RetryPolicy
	// Link carries the packages; required.
	Link *LossyLink
	// Seed drives retry jitter and the health-sample traffic.
	Seed int64
}

// healthPackets is the probe window per router (baseline and post-commit).
const healthPackets = 128

// RouterOutcome is one router's rollout record. Its Wave is the wave index
// the router was upgraded in (0 = the canary wave, -1 = never attempted).
type RouterOutcome struct {
	DeviceID string
	rollout.Unit
	Delivery *DeliveryReport // nil when never attempted
}

// RolloutReport is the full outcome of UpgradeFleet. It is resumable: pass it
// back as prior to skip the routers that already committed.
type RolloutReport struct {
	// Target is the manifest-derived label of the new version
	// ("app@version"), filled from the first successful delivery.
	Target   string
	Outcomes []RouterOutcome
	// Waves is how many waves ran (including the canary wave).
	Waves int
	// Completed: every router is on the new version.
	Completed bool
	// RolledBack: the health gate tripped and the fleet was restored.
	RolledBack bool
	// Reason explains a non-completed rollout in one line.
	Reason string
	Cost   timing.RolloutCost

	// Fleet-wide traffic accounting for every health-sample packet run
	// during the rollout — the zero-downtime evidence.
	Processed, Forwarded, Dropped, Alarms, Faults uint64
	// Conserved: every sampled packet was forwarded or dropped, on every
	// router — npu.Stats.Conserved held fleet-wide.
	Conserved bool
}

// Outcome returns the record for one router (nil if unknown).
func (r *RolloutReport) Outcome(deviceID string) *RouterOutcome {
	for i := range r.Outcomes {
		if r.Outcomes[i].DeviceID == deviceID {
			return &r.Outcomes[i]
		}
	}
	return nil
}

// probeRouter runs healthPackets of deterministic traffic through one router
// and folds the stat deltas into the fleet accounting.
func probeRouter(dev *core.Device, seed int64, rep *RolloutReport) (rollout.Sample, error) {
	gen := packet.NewGenerator(seed)
	pkts := make([][]byte, healthPackets)
	for k := range pkts {
		pkts[k] = gen.Next()
	}
	before := dev.Stats()
	_, err := dev.NP().ProcessBatch(pkts, 0)
	after := dev.Stats()
	s := rollout.Sample{
		Processed:   after.Processed - before.Processed,
		Alarms:      after.Alarms - before.Alarms,
		Faults:      after.Faults - before.Faults,
		Quarantines: after.Quarantines - before.Quarantines,
	}
	rep.Processed += s.Processed
	rep.Forwarded += after.Forwarded - before.Forwarded
	rep.Dropped += after.Dropped - before.Dropped
	rep.Alarms += s.Alarms
	rep.Faults += s.Faults
	return s, err
}

// UpgradeFleet performs a staged, canaried, health-gated upgrade of the fleet
// to app through the rollout engine. Every router follows stage → commit →
// health check; the canary (one router) commits first and gates the rest,
// and later waves take half the fleet each. On a health regression every
// committed router (this run and, via prior, earlier runs) is rolled back to
// the retained previous version. On delivery failure to a non-canary router
// the rollout continues and the report is resumable: call UpgradeFleet
// again with the returned report as prior and only the not-yet-committed
// routers are attempted.
//
// devices must line up with prior.Outcomes when resuming (same IDs).
func UpgradeFleet(op *core.Operator, devices []*core.Device, app *apps.App, cfg RolloutConfig, prior *RolloutReport) (*RolloutReport, error) {
	if len(devices) == 0 {
		return nil, fmt.Errorf("network: no devices to upgrade")
	}
	if cfg.Link == nil {
		return nil, fmt.Errorf("network: rollout requires a link")
	}
	if cfg.Policy.MaxAttempts < 1 {
		cfg.Policy = DefaultRetryPolicy()
	}

	rep := &RolloutReport{Outcomes: make([]RouterOutcome, len(devices))}
	if prior != nil {
		rep.Target = prior.Target
		rep.Cost = prior.Cost
		// The traffic totals carry over too: Cost already accumulates
		// across runs, so restarting the packet counters at zero made a
		// resumed report internally inconsistent (attempts from two runs
		// against samples from one).
		rep.Processed = prior.Processed
		rep.Forwarded = prior.Forwarded
		rep.Dropped = prior.Dropped
		rep.Alarms = prior.Alarms
		rep.Faults = prior.Faults
	}
	units := make([]rollout.Unit, len(devices))
	all := make([]int, len(devices))
	var todo []int
	for i, dev := range devices {
		all[i] = i
		rep.Outcomes[i] = RouterOutcome{DeviceID: dev.ID, Unit: rollout.Unit{Wave: -1}}
		if prior != nil {
			if po := prior.Outcome(dev.ID); po != nil && po.State == rollout.Committed {
				rep.Outcomes[i] = *po
				units[i] = po.Unit
				continue
			}
		}
		units[i] = rep.Outcomes[i].Unit
		todo = append(todo, i)
	}

	// Wave plan: one canary, then waves of half the fleet over the rest.
	var waves [][]int
	if len(todo) > 0 {
		waves = append(waves, todo[:1])
		size := max(len(devices)/2, 1)
		for rest := todo[1:]; len(rest) > 0; {
			k := min(size, len(rest))
			waves = append(waves, rest[:k])
			rest = rest[k:]
		}
	}

	// stop is an infrastructure failure (packaging) that ends the rollout
	// at the end of its wave; reason explains whatever ended the rollout.
	var stop error
	var reason string
	model := timing.NiosIIPrototype()
	t := rollout.Target{
		Probe: func(i, wave int, post bool) (rollout.Sample, error) {
			seed := cfg.Seed ^ int64(i)<<8 ^ int64(wave)
			if post {
				seed ^= 0x5a5a
			}
			s, err := probeRouter(devices[i], seed, rep)
			if err != nil && !post {
				reason = fmt.Sprintf("baseline traffic on %s failed: %v", devices[i].ID, err)
				err = fmt.Errorf("network: baseline on %s: %w", devices[i].ID, err)
			}
			return s, err
		},
		// Stage packages the release for one router and delivers it over
		// the lossy link with retries; the live version is untouched
		// either way.
		Stage: func(i, _ int) error {
			dev := devices[i]
			wire, err := op.ProgramWire(dev.Public(), app)
			if err != nil {
				err = fmt.Errorf("network: packaging for %s: %w", dev.ID, err)
				if stop == nil {
					stop, reason = err, fmt.Sprintf("packaging for %s failed", dev.ID)
				}
				return err
			}
			drep := deliverWithRetry(dev, wire, cfg.Link, cfg.Policy, model, cfg.Seed, (*core.Device).StageUpgrade)
			rep.Outcomes[i].Delivery = &drep
			rep.Cost.AddDelivery(drep.WireSeconds, drep.ProcessSeconds, drep.BackoffSeconds,
				drep.Attempts, drep.Err == nil)
			if drep.Err != nil {
				return drep.Err
			}
			if rep.Target == "" && drep.Install != nil {
				rep.Target = drep.Install.App
			}
			return nil
		},
		Commit: func(i, _ int) error {
			cycles, err := devices[i].CommitUpgrade()
			rep.Cost.DrainCycles += cycles
			return err
		},
		Rollback: func(i int) error {
			cycles, err := devices[i].RollbackUpgrade()
			rep.Cost.DrainCycles += cycles
			if err != nil {
				return fmt.Errorf("rollback on %s: %w", devices[i].ID, err)
			}
			return nil
		},
		Abort: func(i int) { devices[i].AbortUpgrade() },
	}
	judge := func(wave int, ran []int) error {
		if stop != nil {
			return stop
		}
		if d := rep.Outcomes[ran[0]].Delivery; wave == 0 && d != nil && d.Err != nil {
			// The canary never staged, so nothing has committed
			// anywhere; the engine already aborted its stage.
			c := devices[ran[0]].ID
			reason = fmt.Sprintf("canary %s unreachable", c)
			return fmt.Errorf("%w: %s: %v", ErrCanaryDelivery, c, d.Err)
		}
		for _, i := range ran {
			u := &units[i]
			if !(rollout.Gate{}).Regressed(*u) {
				continue
			}
			u.Err = fmt.Errorf("%w: %s rate %.4f vs baseline %.4f (+%d quarantines)",
				ErrHealthRegression, devices[i].ID, u.After.Rate(), u.Baseline.Rate(), u.After.Quarantines)
			// Fleet-wide rollback: every committed router — this wave,
			// earlier waves, prior runs — returns to the retained
			// version, and nothing stays staged anywhere.
			rollout.RollBack(t, units, all)
			for _, dev := range devices {
				dev.AbortUpgrade()
			}
			rep.RolledBack = true
			reason = fmt.Sprintf("health regression on %s; fleet rolled back", devices[i].ID)
			return u.Err
		}
		return nil
	}
	var err error
	rep.Waves, err = rollout.Run(t, units, waves, judge)
	for i := range units {
		rep.Outcomes[i].Unit = units[i]
	}
	if err != nil {
		rep.Reason = reason
	}
	rep.Conserved = true
	for _, dev := range devices {
		if !dev.Stats().Conserved() {
			rep.Conserved = false
		}
	}
	rep.Completed = err == nil && !rep.RolledBack
	for i := range units {
		if units[i].State != rollout.Committed {
			rep.Completed = false
		}
	}
	publishRollout(rep, cfg.Link.Obs)
	return rep, err
}

// publishRollout exports a rollout report's running totals into the link's
// collector: the cost aggregate plus the fleet traffic gauges. Everything is
// a Set, so a resumed rollout republishing its carried-forward totals stays
// consistent with the report instead of doubling. Nil-safe.
func publishRollout(rep *RolloutReport, col *obs.Collector) {
	reg := col.Registry()
	if reg == nil {
		return
	}
	rep.Cost.Publish(reg)
	reg.Gauge("rollout_packets_processed").Set(float64(rep.Processed))
	reg.Gauge("rollout_packets_forwarded").Set(float64(rep.Forwarded))
	reg.Gauge("rollout_packets_dropped").Set(float64(rep.Dropped))
	reg.Gauge("rollout_alarms").Set(float64(rep.Alarms))
	reg.Gauge("rollout_faults").Set(float64(rep.Faults))
	reg.Gauge("rollout_waves").Set(float64(rep.Waves))
}
