// Package rollout is the one wave engine behind every staged upgrade in
// the repository: the network fleet upgrade (internal/network), the fleet
// control plane's rotation rollout (internal/fleet) and the tenant domain
// rollout (internal/tenant). Each unit of a wave is probed for a baseline on
// live traffic, staged, committed at a packet boundary and probed again;
// after the wave a judge decides whether it stands. The engine owns the
// wave iteration, the resume rule (committed units are never touched
// again), the per-unit state machine and the samples; the caller's Target
// supplies the five per-unit actions and its judge supplies the gate and
// the rollback scope.
//
// The gate reads only the controller's own probes. A unit's claim about
// its own health never judges a wave: a byzantine unit can lie about
// itself, never about what the controller observed.
package rollout

import (
	"errors"
	"fmt"
)

// State is one unit's position in the rollout state machine. The numbering
// is part of the fleet report's wire format (FLTR) and must not change.
type State uint8

const (
	// Pending: not yet attempted; a resumed run tries it again.
	Pending State = iota
	// Staged: the release is staged on the unit but not committed.
	Staged
	// Committed: the unit runs the release.
	Committed
	// RolledBack: the unit committed, then was restored to its previous
	// release by a failed gate.
	RolledBack
	// Failed: the stage never landed (lossy link, dead unit) or the commit
	// lost it; a resumed run stages the unit again.
	Failed

	// NumStates bounds the valid encodings.
	NumStates = iota
)

var stateNames = [NumStates]string{"pending", "staged", "committed", "rolled-back", "failed"}

func (s State) String() string {
	if int(s) < NumStates {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// ErrStillStaged marks a commit that did not land while the unit still
// holds the staged release (a lost command): the unit stays Staged and a
// resumed run sends only the commit. Any other commit error fails the unit.
var ErrStillStaged = errors.New("rollout: commit did not land; release still staged")

// Sample is one probe window of traffic through one unit, as the
// controller observed it.
type Sample struct {
	Processed   uint64
	Alarms      uint64
	Faults      uint64
	Quarantines uint64
}

// Rate is alarms plus faults per processed packet (0 for an empty sample).
func (s Sample) Rate() float64 {
	if s.Processed == 0 {
		return 0
	}
	return float64(s.Alarms+s.Faults) / float64(s.Processed)
}

// RateBudget is the tolerated rise of the event rate over the baseline
// before the gate calls a regression.
const RateBudget = 0.02

// Gate is the health gate's probe depth plus the per-unit regression rule.
type Gate struct {
	// HealthPackets is the probe window per unit (baseline and post
	// commit); 0 selects the caller's default.
	HealthPackets int
}

// Regressed applies the per-unit rule to a committed unit: its post-commit
// rate above its own baseline plus RateBudget, any quarantine on the new
// release, or a post-commit probe error (the release took the unit down).
func (Gate) Regressed(u Unit) bool {
	return u.State == Committed &&
		(u.Err != nil || u.After.Quarantines > 0 || u.After.Rate() > u.Baseline.Rate()+RateBudget)
}

// Unit is one unit's record in a rollout.
type Unit struct {
	State State
	// Wave is the wave the unit was last attempted in (-1: never).
	Wave     int
	Baseline Sample // pre-stage probe
	After    Sample // post-commit probe (zero if the unit never committed)
	// Err is the last stage or commit error, or the post-commit probe's.
	Err error
}

// Target is what a rollout upgrades, as the five per-unit actions on a
// unit index.
type Target struct {
	// Probe runs one health window through the unit on live traffic:
	// post is false for the baseline before staging and true after the
	// commit. A baseline error stops the rollout; a post-commit error is
	// judged as a regression.
	Probe func(unit, wave int, post bool) (Sample, error)
	// Stage delivers the release into the unit's shadow slots; the live
	// release keeps serving.
	Stage func(unit, wave int) error
	// Commit cuts the unit over to its staged release.
	Commit func(unit, wave int) error
	// Rollback restores the unit's previous release.
	Rollback func(unit int) error
	// Abort discards whatever a failed stage left staged on the unit; nil
	// when a failed stage never leaves anything behind.
	Abort func(unit int)
}

// Run drives units through the waves in order. Every unit of a wave that is
// not already Committed is probed, staged (unless a previous run left it
// Staged), committed and probed again, one unit at a time. Then judge rules
// on the wave: ran lists the units the wave attempted in this run, in
// order, and a non-nil error ends the rollout — the judge rolls back
// whatever its scope is before returning it. Run returns how many waves it
// started and the error that ended it: a baseline probe error or the
// judge's.
func Run(t Target, units []Unit, waves [][]int, judge func(wave int, ran []int) error) (int, error) {
	for w, wave := range waves {
		var ran []int
		for _, i := range wave {
			if units[i].State == Committed {
				continue
			}
			ran = append(ran, i)
			if err := step(t, &units[i], i, w); err != nil {
				return w + 1, err
			}
		}
		if err := judge(w, ran); err != nil {
			return w + 1, err
		}
	}
	return len(waves), nil
}

// step moves one unit through probe, stage, commit and probe.
func step(t Target, u *Unit, i, w int) error {
	u.Wave = w
	base, err := t.Probe(i, w, false)
	u.Baseline = base
	if err != nil {
		return err
	}
	if u.State != Staged {
		if err := t.Stage(i, w); err != nil {
			if t.Abort != nil {
				t.Abort(i)
			}
			u.State, u.Err = Failed, err
			return nil
		}
		u.State = Staged
	}
	if err := t.Commit(i, w); err != nil {
		u.Err = err
		if !errors.Is(err, ErrStillStaged) {
			u.State = Failed
		}
		return nil
	}
	u.State = Committed
	u.After, u.Err = t.Probe(i, w, true)
	return nil
}

// RollBack restores the previous release on every Committed unit of scope,
// in scope order. A unit whose rollback fails stays Committed with the
// error recorded.
func RollBack(t Target, units []Unit, scope []int) {
	for _, i := range scope {
		if units[i].State != Committed {
			continue
		}
		if err := t.Rollback(i); err != nil {
			units[i].Err = err
			continue
		}
		units[i].State = RolledBack
	}
}
