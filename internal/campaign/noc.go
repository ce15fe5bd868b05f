package campaign

import (
	"fmt"

	"sdmmon/internal/threat"
)

// The NoC family aims malicious cross-shard traffic bursts at the plane's
// admission/ECN path — the NoC-firewall attack class: no packet carries
// attack code, the weapon is traffic shape. Each mutant is a burst
// (target shard, intensity, length) drawn by the campaign seed from one of
// two regimes straddling the congestion threshold: evade bursts sized so
// the queue never reaches the ECN mark point (zero backpressure signal),
// and detect bursts that overrun service and force marks and tail drops.
// Bursts rotate across shards, so the classifier's per-shard backpressure
// baselines are each exercised; gaps between bursts let the level decay
// and the Relax response restore tightened admission before the next one.

// nocBurst is one scheduled burst mutant.
type nocBurst struct {
	shard     int
	start     int
	length    int
	intensity int // extra arrivals per tick aimed at the shard
	evade     bool
}

const (
	// Evade bursts: 30 base + at most 17 extra arrivals against a service
	// budget of 40 queue at most 7 per tick (2 per lane) for at most 4
	// ticks — depth stays below the mark point (32 per card, 8 per lane),
	// and the 4-tick gap drains the backlog.
	nocEvadeSlot = 8
	// Detect bursts: 50..90 extra arrivals overrun service within two
	// ticks; the 10-tick gap lets MEDIUM decay and admission restore.
	nocDetectSlot = 14
	nocTail       = 14
)

type nocDriver struct {
	quiet
	bursts []nocBurst
}

func newNoCDriver(c *campaign) (driver, error) {
	d := &nocDriver{}
	evades := (c.spec.Mutants + 1) / 2
	tick := Warmup
	for i := 0; i < c.spec.Mutants; i++ {
		b := nocBurst{
			shard:  i % c.spec.Shards,
			start:  tick,
			length: c.rng.between(2, 4),
			evade:  i < evades,
		}
		if b.evade {
			b.intensity = c.rng.between(12, 17)
			tick += nocEvadeSlot
		} else {
			b.intensity = c.rng.between(50, 90)
			tick += nocDetectSlot
		}
		d.bursts = append(d.bursts, b)
		kind := "detect-burst"
		if b.evade {
			kind = "evade-burst"
		}
		c.res.Mutants = append(c.res.Mutants, MutantOutcome{
			Index: i,
			Kind:  fmt.Sprintf("%s@shard%d:i%d×%d", kind, b.shard, b.intensity, b.length),
			Tick:  b.start,
		})
	}
	return d, nil
}

func (d *nocDriver) detectLevel() threat.Level { return threat.Medium }

func (d *nocDriver) surge(t int) (int, int) {
	for _, b := range d.bursts {
		if t >= b.start && t < b.start+b.length {
			return b.shard, b.intensity
		}
	}
	return -1, 0
}

func (d *nocDriver) afterTick(c *campaign, t int, lvl threat.Level) error {
	for i, b := range d.bursts {
		if t >= b.start && t < b.start+b.length {
			c.res.Mutants[i].Packets += b.intensity
		}
		// Attribution window: a burst owns escalations up to two ticks past
		// its end (queue pressure outlives the last arrival).
		if lvl >= threat.Medium && t >= b.start && t <= b.start+b.length+2 {
			c.res.Mutants[i].Detected = true
		}
	}
	return nil
}

func (d *nocDriver) finish(c *campaign) {
	// Evasion depth: packets the undetected bursts pushed through without
	// tripping the backpressure classifier.
	var sum, n float64
	for _, o := range c.res.Mutants {
		if !o.Detected {
			sum += float64(o.Packets)
			n++
		}
	}
	if n > 0 {
		c.res.EvasionDepth = sum / n
	}
}

func checkNoC(r *Result) error {
	if r.Peak < threat.Medium {
		return fmt.Errorf("noc: peak %v, want >= MEDIUM from detect bursts", r.Peak)
	}
	if r.AdmissionTightened < 1 {
		return fmt.Errorf("noc: admission never tightened at MEDIUM")
	}
	if r.LockdownFired {
		return fmt.Errorf("noc: lockdown fired on a congestion-only campaign")
	}
	if r.Stats.Marked == 0 {
		return fmt.Errorf("noc: detect bursts produced no ECN marks")
	}
	var detected, evaded int
	for _, m := range r.Mutants {
		if m.Detected {
			detected++
		} else {
			evaded++
		}
	}
	if detected == 0 {
		return fmt.Errorf("noc: no burst detected")
	}
	if evaded == 0 {
		return fmt.Errorf("noc: no burst evaded — the evade regime failed")
	}
	if r.Final > threat.Low {
		return fmt.Errorf("noc: final level %v, want decay to <= LOW", r.Final)
	}
	return nil
}
