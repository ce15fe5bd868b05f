package campaign

import (
	"fmt"

	"sdmmon/internal/threat"
)

// The slowdrip family adaptively titrates the poison duty cycle against
// the engine's EWMA baselines: start far below the noise floor, climb
// geometrically while the classifier stays at or below LOW (each 5-tick
// epoch the baselines keep absorbing the previous rate), and retreat to
// the last safe duty the moment the classifier escalates past LOW. The
// highest sustained duty — the evasion frontier — quantifies how much
// poison the EWMA folding forgives, and is the campaign's sharpest
// argument for FreezeAt-style baseline freezing.

// SlowDripDutyFloor is the analytic evasion floor: against a frozen clean
// baseline the alarm-rate z-score is rate/MinStd, and MEDIUM requires
// z >= Up[Medium], so a drip whose realized per-tick attack rate stays
// below Up[Medium]×MinStd = 3×0.08 = 0.24 can never escalate past LOW.
// Duty quantizes to packet counts (multiples of 1/quota per tick), so the
// guarantee is on the realized rate: a configured duty of 0.10 on an
// 8-packet quota realizes at most 1/8 = 0.125 < 0.24 and stays at or
// below LOW forever, while a duty of 0.5 realizes 0.5 >= 0.24 and
// escalates. The slowdrip regression test pins both sides of this floor.
const SlowDripDutyFloor = 0.24

const slowDripEpochTicks = 5

// slowDripStart is the opening duty, far below the baselines' noise floor.
const slowDripStart = 1.0 / 64

// slowDripGrowth is the per-epoch duty multiplier.
const slowDripGrowth = 1.35

type slowDripDriver struct {
	pkt []byte
	quiet
	fixed float64 // > 0 pins the duty (regression mode); 0 = adaptive

	cur       float64
	frontier  float64
	retreated bool
	epoch     int
	epochMax  threat.Level
	slipped   int64
}

func newSlowDripDriver(c *campaign) (driver, error) {
	hijack, err := c.smash.HijackPayload()
	if err != nil {
		return nil, err
	}
	pkt, err := c.smash.CraftPacket(hijack)
	if err != nil {
		return nil, err
	}
	c.aim(pkt)
	return &slowDripDriver{
		pkt:   pkt,
		fixed: float64(c.spec.DutyMilli) / 1000,
		cur:   slowDripStart,
	}, nil
}

func (d *slowDripDriver) detectLevel() threat.Level { return threat.Medium }
func (d *slowDripDriver) attackCores() []int        { return []int{1} }

func (d *slowDripDriver) duty(t int) float64 {
	if t < Warmup {
		return 0
	}
	if d.fixed > 0 {
		return d.fixed
	}
	return d.cur
}

// craft opens one mutant row per titration epoch, on its first packet.
func (d *slowDripDriver) craft(c *campaign, t, core int) (int, []byte, bool, error) {
	for len(c.res.Mutants) <= d.epoch {
		c.res.Mutants = append(c.res.Mutants, MutantOutcome{
			Index: len(c.res.Mutants),
			Kind:  fmt.Sprintf("duty=%.4f", d.duty(t)),
			Tick:  t,
		})
	}
	return d.epoch, d.pkt, true, nil
}

func (d *slowDripDriver) afterTick(c *campaign, t int, lvl threat.Level) error {
	if t < Warmup {
		return nil
	}
	if lvl > d.epochMax {
		d.epochMax = lvl
	}
	if lvl <= threat.Low {
		// Slip accounting: packets that went through while the classifier
		// stayed at or below LOW.
		d.slipped += int64(c.atkTick)
		if n := len(c.res.Mutants); n > 0 {
			c.res.Mutants[n-1].Depth += c.atkTick
		}
	}
	if d.fixed > 0 || d.retreated {
		return nil
	}
	// Adaptive titration: escalation past LOW retreats immediately to the
	// last duty that held; otherwise climb at each epoch boundary.
	if lvl > threat.Low {
		d.retreated = true
		if d.frontier > 0 {
			d.cur = d.frontier
		} else {
			d.cur = slowDripStart
		}
		return nil
	}
	if (t-Warmup+1)%slowDripEpochTicks == 0 {
		if d.epochMax <= threat.Low {
			d.frontier = d.cur
		}
		d.cur = min(d.cur*slowDripGrowth, 1)
		d.epoch++
		d.epochMax = threat.None
	}
	return nil
}

func (d *slowDripDriver) finish(c *campaign) {
	frontier := d.frontier
	if d.fixed > 0 {
		// Regression mode: the frontier is the pinned duty if it never
		// escalated past LOW.
		if c.res.Peak <= threat.Low {
			frontier = d.fixed
		} else {
			frontier = 0
		}
	}
	c.res.SlowDrip = &SlowDripMetrics{
		FrontierDuty:   frontier,
		SlippedPackets: d.slipped,
		Epochs:         d.epoch,
		Retreated:      d.retreated,
	}
	c.res.EvasionDepth = frontier
}

func checkSlowDrip(r *Result) error {
	m := r.SlowDrip
	if m == nil {
		return fmt.Errorf("slowdrip: no titration metrics recorded")
	}
	if r.Spec.DutyMilli > 0 {
		// Fixed-duty regression runs assert through the dedicated test, not
		// here: just require the slip accounting to be coherent.
		if m.SlippedPackets < 0 {
			return fmt.Errorf("slowdrip: negative slip count %d", m.SlippedPackets)
		}
		return nil
	}
	if !m.Retreated {
		return fmt.Errorf("slowdrip: adaptive titration never found the frontier (peak %v)", r.Peak)
	}
	if m.FrontierDuty <= slowDripStart || m.FrontierDuty >= 0.7 {
		return fmt.Errorf("slowdrip: frontier duty %.4f outside the plausible (%.4f, 0.7) band",
			m.FrontierDuty, slowDripStart)
	}
	if m.SlippedPackets == 0 {
		return fmt.Errorf("slowdrip: no packets slipped below LOW")
	}
	if r.PacketsToDetect < 0 {
		return fmt.Errorf("slowdrip: retreat implies MEDIUM was reached, but detection never latched")
	}
	if r.Final > threat.Low {
		return fmt.Errorf("slowdrip: final level %v, want <= LOW at the frontier", r.Final)
	}
	if r.LockdownFired {
		return fmt.Errorf("slowdrip: lockdown fired during titration")
	}
	return nil
}
