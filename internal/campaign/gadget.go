package campaign

import (
	"fmt"

	"sdmmon/internal/attack"
	"sdmmon/internal/isa"
	"sdmmon/internal/threat"
)

// The gadget family mounts ROP-style control-flow attacks: every mutant is
// a chain of consecutive *legitimate* app instructions (a gadget) lifted
// from the installed binary, delivered through the stack-smash overflow,
// and terminated by a break word that diverts to attacker behaviour. The
// monitor does not check instruction provenance — only that the hash
// stream matches the expected stream from the hijacked return site — so a
// gadget evades exactly as far as its words happen to hash-collide with
// the straight-line fall-through the monitor expects. The campaign walks a
// duty staircase (1/8 → 1/4 → 1/2 → 1) until the classifier isolates the
// attacked core.

// gadgetPhaseTicks is the residency of each staircase step.
const gadgetPhaseTicks = 6

var gadgetDuties = []float64{1.0 / 8, 1.0 / 4, 1.0 / 2, 1}

type gadgetDriver struct {
	quiet
	pkts [][]byte
	next int // round-robin cursor over the mutant pool
}

func newGadgetDriver(c *campaign) (driver, error) {
	cws := c.prog.CodeWords()
	if len(cws) < 8 {
		return nil, fmt.Errorf("campaign: program too small for gadget chains")
	}
	retSite, err := attack.ReturnSiteAfterEntryCall(c.prog)
	if err != nil {
		return nil, err
	}
	// The hash stream the monitor expects after the smashed return: the
	// straight-line fall-through from the hijacked call's return site. A
	// chain's evasion depth is its matched prefix against this stream.
	var expect []uint8
	for a := retSite; ; a += 4 {
		w, ok := c.prog.WordAt(a)
		if !ok {
			break
		}
		expect = append(expect, c.hasher.Hash(uint32(w)))
	}
	// The break word ends every chain with attacker behaviour — the first
	// word of the canonical hijack payload — so even a fully colliding
	// chain diverges eventually.
	hijack, err := c.smash.HijackPayload()
	if err != nil {
		return nil, err
	}
	brk := hijack[0]

	// Chains whose packets dispatch off the attack shard are redrawn.
	d := &gadgetDriver{}
	for len(d.pkts) < c.spec.Mutants {
		n := c.rng.between(2, 6)
		start := c.rng.intn(len(cws) - n)
		words := make([]isa.Word, 0, n+1)
		for k := 0; k < n; k++ {
			words = append(words, cws[start+k].W)
		}
		words = append(words, brk)
		depth := 0
		for k := 0; k < len(words) && k < len(expect); k++ {
			if c.hasher.Hash(uint32(words[k])) != expect[k] {
				break
			}
			depth++
		}
		pkt, err := c.smash.CraftPacket(words)
		if err != nil {
			return nil, err
		}
		if !c.aim(pkt) {
			continue
		}
		c.res.Mutants = append(c.res.Mutants, MutantOutcome{
			Index: len(d.pkts),
			Kind:  fmt.Sprintf("chain@%#x+%d", cws[start].Addr, n),
			Tick:  -1,
			Depth: depth,
		})
		d.pkts = append(d.pkts, pkt)
	}
	return d, nil
}

func (d *gadgetDriver) detectLevel() threat.Level { return threat.High }
func (d *gadgetDriver) attackCores() []int        { return []int{1} }

func (d *gadgetDriver) duty(t int) float64 {
	if t < Warmup {
		return 0
	}
	step := (t - Warmup) / gadgetPhaseTicks
	if step >= len(gadgetDuties) {
		step = len(gadgetDuties) - 1
	}
	return gadgetDuties[step]
}

func (d *gadgetDriver) craft(c *campaign, t, core int) (int, []byte, bool, error) {
	mi := d.next % len(d.pkts)
	d.next++
	return mi, d.pkts[mi], true, nil
}

func (d *gadgetDriver) finish(c *campaign) {
	// Aggregate evasion depth: mean matched-prefix length over the mutants
	// that ran and were never alarmed on (deep chains that also collided).
	var sum, n float64
	for _, o := range c.res.Mutants {
		if o.Packets > 0 && !o.Detected {
			sum += float64(o.Depth)
			n++
		}
	}
	if n > 0 {
		c.res.EvasionDepth = sum / n
	}
}

func checkGadget(r *Result) error {
	if r.Peak < threat.High {
		return fmt.Errorf("gadget: peak %v, want >= HIGH", r.Peak)
	}
	if r.LockdownFired {
		return fmt.Errorf("gadget: lockdown fired on a core-local attack")
	}
	if r.IsolatedCores < 1 {
		return fmt.Errorf("gadget: no core isolated at HIGH")
	}
	if len(r.Incidents) < 1 {
		return fmt.Errorf("gadget: no incident captured")
	}
	if r.PacketsToDetect < 0 {
		return fmt.Errorf("gadget: never reached detection level")
	}
	if r.Final > threat.Low {
		return fmt.Errorf("gadget: final level %v, want <= LOW after isolation", r.Final)
	}
	executed := len(r.Mutants) // RunSpec keeps only the mutants that ran
	if executed < r.Spec.Mutants/2 {
		return fmt.Errorf("gadget: only %d/%d mutants executed", executed, r.Spec.Mutants)
	}
	if r.MutantsDetected*10 < executed*8 {
		return fmt.Errorf("gadget: %d/%d executed mutants detected, want >= 80%%",
			r.MutantsDetected, executed)
	}
	return nil
}
