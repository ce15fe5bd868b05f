package campaign

import (
	"fmt"

	"sdmmon/internal/threat"
)

// Phase-table families: each is a fixed schedule of {until, duty, surge,
// kind} rows run against one attack shard and core set, with every attack
// packet the smash hijack through the front door. One driver plays all
// three tables.
//
// The poison family is the adversarial baseline-poisoning ramp FreezeAt
// exists to contain: train the EWMA baselines with a slowly rising alarm
// rate, then strike at a duty the trained mean would forgive. Run with the
// campaign default (FreezeAt LOW) the baselines freeze at the clean floor
// on the first LOW transition, the ramp reads as a growing deviation, and
// the classifier reaches MEDIUM while the ramp is still climbing. Run with
// FreezeAt CRITICAL (the degraded-containment configuration the FreezeAt
// regression pins) the baselines absorb the whole ramp and the strike
// lands a z-score under 2 — the campaign stays at or below LOW
// throughout. The two trajectories differ only in the freeze gate.
//
// The burst family is a sudden full-intensity attack on every core of one
// shard with an arrival surge: the classifier jumps to CRITICAL, the full
// response battery fires (rehash, zeroize staged bundles, lockdown), and
// the plane recovers after the burst.
//
// The ramp family is a staged escalation on one core: the duty climbs
// 1/8 → 1/4 → 1/2 → 1, walking the classifier up LOW → MEDIUM → HIGH,
// where isolating the core ends the attack and the level walks back down
// through the dwell times.

// phase is one row of a family's schedule.
type phase struct {
	until int // exclusive end tick
	duty  float64
	surge int // extra arrivals per tick aimed at the attack shard
	kind  string
}

// poisonSchedule: short clean lead-in, three-step training ramp, a strike
// at 3/7 duty (exactly 3 of the attacked core's 7-packet quota, keeping
// the realized rate just below the 0.6 absolute-escalation clamp), then a
// quiet tail for decay. Total 64 ticks — the family's default length.
var poisonSchedule = []phase{
	{until: 6, duty: 0, kind: "lead-in"},
	{until: 12, duty: 0.10, kind: "ramp-0.10"},
	{until: 18, duty: 0.22, kind: "ramp-0.22"},
	{until: 36, duty: 0.28, kind: "plateau-0.28"},
	{until: 48, duty: 3.0 / 7.0, kind: "strike-3/7"},
	{until: 1 << 30, duty: 0, kind: "tail"},
}

// burstSchedule: after warmup, 6 ticks of every packet on every attacked
// core carrying the hijack, plus 60 extra arrivals per tick. Ticks past
// the last row are quiet.
var burstSchedule = []phase{
	{until: Warmup, kind: "warmup"},
	{until: Warmup + 6, duty: 1, surge: 60, kind: "burst"},
}

// rampSchedule: after warmup, a 6-tick step at each duty of the
// staircase.
var rampSchedule = []phase{
	{until: Warmup, kind: "warmup"},
	{until: Warmup + 6, duty: 1.0 / 8, kind: "duty-1/8"},
	{until: Warmup + 12, duty: 1.0 / 4, kind: "duty-1/4"},
	{until: Warmup + 18, duty: 1.0 / 2, kind: "duty-1/2"},
	{until: Warmup + 24, duty: 1, kind: "duty-1"},
}

type phaseDriver struct {
	quiet
	phases []phase
	shard  int // the attack shard, where the hijack packet dispatches
	cores  []int
	detect threat.Level

	pkt []byte
	// slot maps a schedule row to its mutant index; -1 for quiet rows.
	slot []int
}

func newPhaseDriver(c *campaign) (driver, error) {
	hijack, err := c.smash.HijackPayload()
	if err != nil {
		return nil, err
	}
	pkt, err := c.smash.CraftPacket(hijack)
	if err != nil {
		return nil, err
	}
	c.aim(pkt)
	d := &phaseDriver{pkt: pkt, shard: c.atkShard}
	switch c.spec.Family {
	case FamilyBurst:
		d.phases, d.detect = burstSchedule, threat.Critical
		for core := 0; core < c.spec.Cores; core++ {
			d.cores = append(d.cores, core)
		}
	case FamilyRamp:
		d.phases, d.cores, d.detect = rampSchedule, []int{1}, threat.High
	default:
		// Poison attacks the last core: with the default 30-packet/4-core
		// shard its quota is 7, so the 3/7 strike realizes a constant
		// per-tick rate.
		d.phases, d.cores, d.detect = poisonSchedule, []int{c.spec.Cores - 1}, threat.Medium
	}
	start := 0
	for _, ph := range d.phases {
		mi := -1
		if ph.duty > 0 {
			mi = len(c.res.Mutants)
			c.res.Mutants = append(c.res.Mutants, MutantOutcome{Index: mi, Kind: ph.kind, Tick: start})
		}
		d.slot = append(d.slot, mi)
		start = ph.until
	}
	return d, nil
}

// at returns the schedule row running at tick t and its mutant index.
func (d *phaseDriver) at(t int) (int, phase) {
	for i, ph := range d.phases {
		if t < ph.until {
			return d.slot[i], ph
		}
	}
	return -1, phase{}
}

func (d *phaseDriver) detectLevel() threat.Level { return d.detect }
func (d *phaseDriver) attackCores() []int        { return d.cores }

func (d *phaseDriver) duty(t int) float64 {
	_, ph := d.at(t)
	return ph.duty
}

func (d *phaseDriver) surge(t int) (int, int) {
	_, ph := d.at(t)
	return d.shard, ph.surge
}

func (d *phaseDriver) craft(c *campaign, t, core int) (int, []byte, bool, error) {
	mi, ph := d.at(t)
	if ph.duty == 0 {
		return 0, nil, false, nil
	}
	return mi, d.pkt, true, nil
}

func (d *phaseDriver) afterTick(c *campaign, t int, lvl threat.Level) error {
	// A phase also counts as detected when the classifier reaches the
	// family's detection level while it runs — the burst-level attribution,
	// independent of per-packet alarms. Attack packets absorbed at or below
	// LOW are the phase's evasion depth.
	mi, _ := d.at(t)
	if mi < 0 {
		return nil
	}
	if lvl >= d.detect {
		c.res.Mutants[mi].Detected = true
	} else if lvl <= threat.Low {
		c.res.Mutants[mi].Depth += c.atkTick
	}
	return nil
}

func (d *phaseDriver) finish(c *campaign) {
	// Evasion depth: attack packets absorbed while the classifier sat at
	// or below LOW — the whole poison ramp in the unfrozen configuration.
	var slipped float64
	for _, o := range c.res.Mutants {
		slipped += float64(o.Depth)
	}
	c.res.EvasionDepth = slipped
}

func checkPoison(r *Result) error {
	if r.Peak < threat.Medium {
		return fmt.Errorf("poison: peak %v with frozen baselines, want >= MEDIUM", r.Peak)
	}
	if r.PacketsToLevel[threat.Medium] < 0 {
		return fmt.Errorf("poison: frozen baselines never reached MEDIUM")
	}
	if r.AdmissionTightened < 1 {
		return fmt.Errorf("poison: admission never tightened at MEDIUM")
	}
	if r.LockdownFired {
		return fmt.Errorf("poison: lockdown fired below CRITICAL")
	}
	if r.Final > threat.Low {
		return fmt.Errorf("poison: final level %v, want decay to <= LOW in the tail", r.Final)
	}
	return nil
}

// checkBurst: the burst must reach CRITICAL, fire the full response
// battery, and recover.
func checkBurst(r *Result) error {
	if r.Peak != threat.Critical {
		return fmt.Errorf("burst: peaked at %v, want %v", r.Peak, threat.Critical)
	}
	if len(r.Incidents) == 0 {
		return fmt.Errorf("burst: captured no incidents")
	}
	if !r.LockdownFired {
		return fmt.Errorf("burst: never locked the plane down")
	}
	if r.FailedShards == 0 {
		return fmt.Errorf("burst: never rehashed the attacked shard")
	}
	if !r.StagedZeroized || r.StagedLeft != 0 {
		return fmt.Errorf("burst: left %d staged bundles (zeroized=%v)", r.StagedLeft, r.StagedZeroized)
	}
	if r.Final > threat.Low {
		return fmt.Errorf("burst: ended at %v, want <= %v after recovery", r.Final, threat.Low)
	}
	return nil
}

// checkRamp: the ramp must enter at LOW, peak at HIGH or above, and be
// ended by core isolation.
func checkRamp(r *Result) error {
	if len(r.Trajectory) == 0 || r.Trajectory[0].To != threat.Low {
		return fmt.Errorf("ramp: first transition is not to %v: %+v", threat.Low, r.Trajectory)
	}
	if r.Peak < threat.High {
		return fmt.Errorf("ramp: peaked at %v, want >= %v", r.Peak, threat.High)
	}
	if len(r.Incidents) == 0 {
		return fmt.Errorf("ramp: captured no incidents")
	}
	if r.IsolatedCores == 0 {
		return fmt.Errorf("ramp: never isolated the offending core")
	}
	if r.Final > threat.Low {
		return fmt.Errorf("ramp: ended at %v, want <= %v after isolation", r.Final, threat.Low)
	}
	return nil
}
