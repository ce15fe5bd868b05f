package campaign

import (
	"fmt"

	"sdmmon/internal/attack"
	"sdmmon/internal/isa"
	"sdmmon/internal/npu"
	"sdmmon/internal/threat"
)

// The collision family runs a budget-capped partial-hash collision search
// against the live Merkle parameter: the persist-attack store variants,
// shuffled by the campaign seed, are probed one packet at a time against a
// monitored core until one variant's hash collides with the expected
// stream and its store lands persistent scratch corruption. Probes run at
// 50% duty, so the classifier latches HIGH on the first attack tick and
// isolates the probed core; the driver then rotates to the next active
// core — the search continues under fire, which is exactly the regime the
// per-device parameter (and PR 7's rotation) is meant to contain.

type collisionDriver struct {
	quiet
	pkts   [][]byte // one probe per persist variant, shuffled by the seed
	budget attack.SearchBudget

	cur        int // next variant index
	core       int // core currently probed
	attempts   int
	cycles     uint64
	exhausted  bool
	found      bool
	foundProbe int
	done       bool
}

func newCollisionDriver(c *campaign) (driver, error) {
	vars := c.smash.PersistVariants()
	c.rng.shuffleWords(vars)
	d := &collisionDriver{
		budget:     attack.SearchBudget{MaxProbes: c.spec.ProbeBudget, MaxCycles: c.spec.CycleBudget},
		core:       1,
		foundProbe: -1,
	}
	// Variants whose probes dispatch off the attack shard are dropped.
	for _, v := range vars {
		pkt, err := c.smash.CraftPacket([]isa.Word{v})
		if err != nil {
			return nil, err
		}
		if c.aim(pkt) {
			d.pkts = append(d.pkts, pkt)
		}
	}
	return d, nil
}

func (d *collisionDriver) detectLevel() threat.Level { return threat.High }

func (d *collisionDriver) attackCores() []int {
	if d.done {
		return nil
	}
	return []int{d.core}
}

func (d *collisionDriver) duty(t int) float64 {
	if t < Warmup || d.done {
		return 0
	}
	return 0.5
}

func (d *collisionDriver) craft(c *campaign, t, core int) (int, []byte, bool, error) {
	if d.done || d.cur >= len(d.pkts) {
		return 0, nil, false, nil
	}
	// attack.SearchBudget semantics, enforced inline: refuse the probe that
	// would exceed either cap and mark the search exhausted.
	if d.budget.MaxProbes > 0 && d.attempts >= d.budget.MaxProbes {
		d.exhausted, d.done = true, true
		return 0, nil, false, nil
	}
	if d.budget.MaxCycles > 0 && d.cycles >= d.budget.MaxCycles {
		d.exhausted, d.done = true, true
		return 0, nil, false, nil
	}
	mi := d.cur
	d.cur++
	return mi, d.pkts[mi], true, nil
}

func (d *collisionDriver) observe(c *campaign, core int, st npu.Stats) error {
	d.attempts++
	d.cycles += st.Cycles
	// The persistence check runs after EVERY probe, alarmed or not: the
	// engineered store corrupts scratch before the monitor alarms on the
	// following word, so a detected probe can still have landed.
	hit, err := attack.PersistSucceeded(c.nps[c.atkShard], core)
	if err != nil {
		return err
	}
	if hit {
		d.found, d.done = true, true
		d.foundProbe = d.attempts
		return nil
	}
	// Miss: the operator reimages (scratch scrub) and the attacker moves to
	// the next variant.
	return c.scrubScratch(c.atkShard, core)
}

func (d *collisionDriver) afterTick(c *campaign, t int, lvl threat.Level) error {
	if d.done {
		return nil
	}
	// The classifier isolates the probed core at HIGH; rotate the search to
	// the next active core, or stop when the shard has none left.
	if h, err := c.nps[c.atkShard].CoreHealth(d.core); err == nil && h == npu.CoreQuarantined {
		active := c.activeCores(c.atkShard)
		if len(active) == 0 {
			d.done = true
			return nil
		}
		next := -1
		for _, core := range active {
			if core > d.core {
				next = core
				break
			}
		}
		if next < 0 {
			next = active[0]
		}
		d.core = next
	}
	return nil
}

func (d *collisionDriver) finish(c *campaign) {
	c.res.Collision = &CollisionMetrics{
		Attempts:   d.attempts,
		Cycles:     d.cycles,
		Exhausted:  d.exhausted,
		Found:      d.found,
		FoundProbe: d.foundProbe,
	}
	if d.found {
		c.res.Mutants = []MutantOutcome{{
			Index: d.foundProbe - 1, Kind: "colliding-store", Tick: -1,
			Packets: 1, Detected: false, Depth: 1,
		}}
		c.res.EvasionDepth = 1
	}
}

func checkCollision(r *Result) error {
	m := r.Collision
	if m == nil {
		return fmt.Errorf("collision: no search metrics recorded")
	}
	if !m.Found && !m.Exhausted {
		return fmt.Errorf("collision: search neither found nor exhausted: %+v", m)
	}
	if r.Spec.ProbeBudget > 0 && m.Attempts > r.Spec.ProbeBudget {
		return fmt.Errorf("collision: %d attempts exceed probe budget %d", m.Attempts, r.Spec.ProbeBudget)
	}
	// A lucky search can win before the classifier sees one full attack
	// tick: the first tick probes ~duty×quota = 4 slots, and fewer probes
	// than that leave the realized alarm rate under the HIGH threshold.
	// That quiet win is a legal outcome (it is what the probe budget
	// prices), so the escalation/isolation assertions apply only when the
	// search survived a full tick of probing.
	quietWin := m.Found && m.FoundProbe > 0 && m.FoundProbe < 4
	if !quietWin {
		if r.Peak < threat.High {
			return fmt.Errorf("collision: peak %v, want >= HIGH while probing at 50%% duty", r.Peak)
		}
		if r.IsolatedCores < 1 {
			return fmt.Errorf("collision: no core isolated at HIGH")
		}
	}
	if r.LockdownFired {
		return fmt.Errorf("collision: lockdown fired on a core-local probe stream")
	}
	if r.Final > threat.Low {
		return fmt.Errorf("collision: final level %v, want <= LOW", r.Final)
	}
	return nil
}
