package rollout

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// fake is a scripted target: units listed in bad fault on every post-commit
// probe packet, units in unstageable refuse the stage, units in lostCommit
// lose the commit command while keeping the stage, and every action is
// logged in order.
type fake struct {
	bad, unstageable, lostCommit map[int]bool
	baselineErr                  map[int]error
	log                          []string
}

func (f *fake) Probe(u, wave int, post bool) (Sample, error) {
	f.log = append(f.log, fmt.Sprintf("probe%d/%v", u, post))
	if !post && f.baselineErr[u] != nil {
		return Sample{}, f.baselineErr[u]
	}
	s := Sample{Processed: 100}
	if post && f.bad[u] {
		s.Faults = 100
	}
	return s, nil
}

func (f *fake) Stage(u, _ int) error {
	f.log = append(f.log, fmt.Sprintf("stage%d", u))
	if f.unstageable[u] {
		return fmt.Errorf("unit %d unreachable", u)
	}
	return nil
}

func (f *fake) Commit(u, _ int) error {
	f.log = append(f.log, fmt.Sprintf("commit%d", u))
	if f.lostCommit[u] {
		return fmt.Errorf("%w: unit %d", ErrStillStaged, u)
	}
	return nil
}

func (f *fake) Rollback(u int) error {
	f.log = append(f.log, fmt.Sprintf("rollback%d", u))
	return nil
}

func (f *fake) Abort(u int) { f.log = append(f.log, fmt.Sprintf("abort%d", u)) }

func (f *fake) target() Target {
	return Target{Probe: f.Probe, Stage: f.Stage, Commit: f.Commit, Rollback: f.Rollback, Abort: f.Abort}
}

// rollbacks lists the rollback actions in the order they ran.
func (f *fake) rollbacks() []string {
	var out []string
	for _, e := range f.log {
		if len(e) > 8 && e[:8] == "rollback" {
			out = append(out, e)
		}
	}
	return out
}

func newUnits(n int) []Unit {
	u := make([]Unit, n)
	for i := range u {
		u[i].Wave = -1
	}
	return u
}

func states(units []Unit) []State {
	out := make([]State, len(units))
	for i := range units {
		out[i] = units[i].State
	}
	return out
}

var errRegressed = errors.New("regressed")

// perUnit is the network/tenant judge: the first regressed unit of the wave
// rolls back every committed unit of scope.
func perUnit(t Target, units []Unit, scope []int) func(int, []int) error {
	return func(_ int, ran []int) error {
		for _, i := range ran {
			if (Gate{}).Regressed(units[i]) {
				RollBack(t, units, scope)
				return errRegressed
			}
		}
		return nil
	}
}

// A later-wave regression under the fleet-wide scope rolls back the earlier
// waves too (the network rollout's rule).
func TestLaterWaveRegressionRollsBackAll(t *testing.T) {
	f := &fake{bad: map[int]bool{3: true}}
	units := newUnits(4)
	waves := [][]int{{0}, {1, 2}, {3}}
	n, err := Run(f.target(), units, waves, perUnit(f.target(), units, []int{0, 1, 2, 3}))
	if !errors.Is(err, errRegressed) || n != 3 {
		t.Fatalf("Run = %d, %v; want 3 waves, errRegressed", n, err)
	}
	want := []State{RolledBack, RolledBack, RolledBack, RolledBack}
	if got := states(units); !reflect.DeepEqual(got, want) {
		t.Fatalf("states %v, want %v", got, want)
	}
	if units[3].After.Rate() != 1 || units[3].Baseline.Rate() != 0 {
		t.Fatalf("unit 3 samples %+v", units[3])
	}
	// One unit at a time: probe, stage, commit, probe.
	wantLog := []string{"probe0/false", "stage0", "commit0", "probe0/true"}
	if !reflect.DeepEqual(f.log[:4], wantLog) {
		t.Fatalf("first unit's steps %v, want %v", f.log[:4], wantLog)
	}
}

// The tenant scope: every committed unit, newest first.
func TestRollbackNewestFirst(t *testing.T) {
	f := &fake{bad: map[int]bool{2: true}}
	units := newUnits(3)
	_, err := Run(f.target(), units, [][]int{{0}, {1}, {2}}, perUnit(f.target(), units, []int{2, 1, 0}))
	if !errors.Is(err, errRegressed) {
		t.Fatalf("err %v", err)
	}
	if got, want := f.rollbacks(), []string{"rollback2", "rollback1", "rollback0"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rollback order %v, want %v", got, want)
	}
}

// The fleet scope: only the failed wave rolls back; earlier waves stay
// committed and later waves are never attempted.
func TestWaveScopeRollsBackOnlyThatWave(t *testing.T) {
	f := &fake{bad: map[int]bool{2: true}}
	units := newUnits(5)
	waves := [][]int{{0}, {1, 2}, {3, 4}}
	judge := func(_ int, ran []int) error {
		for _, i := range ran {
			if (Gate{}).Regressed(units[i]) {
				RollBack(f.target(), units, ran)
				return errRegressed
			}
		}
		return nil
	}
	if _, err := Run(f.target(), units, waves, judge); !errors.Is(err, errRegressed) {
		t.Fatalf("err %v", err)
	}
	want := []State{Committed, RolledBack, RolledBack, Pending, Pending}
	if got := states(units); !reflect.DeepEqual(got, want) {
		t.Fatalf("states %v, want %v", got, want)
	}
	if units[3].Wave != -1 {
		t.Fatalf("unit 3 attempted in wave %d", units[3].Wave)
	}
}

// Resume: committed units are never touched again, a Staged unit is only
// committed, a failed stage is aborted and retried on the next run.
func TestResumeSkipsCommittedAndStaged(t *testing.T) {
	f := &fake{unstageable: map[int]bool{2: true}, lostCommit: map[int]bool{3: true}}
	units := newUnits(4)
	waves := [][]int{{0}, {1, 2, 3}}
	pass := func(int, []int) error { return nil }
	if n, err := Run(f.target(), units, waves, pass); err != nil || n != 2 {
		t.Fatalf("first run = %d, %v", n, err)
	}
	want := []State{Committed, Committed, Failed, Staged}
	if got := states(units); !reflect.DeepEqual(got, want) {
		t.Fatalf("first run states %v, want %v", got, want)
	}
	if !errors.Is(units[3].Err, ErrStillStaged) || units[2].Err == nil {
		t.Fatalf("errors: unit 2 %v, unit 3 %v", units[2].Err, units[3].Err)
	}
	f.log = nil
	f.unstageable, f.lostCommit = nil, nil
	if _, err := Run(f.target(), units, waves, pass); err != nil {
		t.Fatal(err)
	}
	wantLog := []string{
		"probe2/false", "stage2", "commit2", "probe2/true",
		"probe3/false", "commit3", "probe3/true",
	}
	if !reflect.DeepEqual(f.log, wantLog) {
		t.Fatalf("resume steps %v, want %v", f.log, wantLog)
	}
	for i := range units {
		if units[i].State != Committed || units[i].Err != nil {
			t.Fatalf("unit %d after resume: %+v", i, units[i])
		}
	}
}

// A failed stage is aborted on the unit before the judge sees it.
func TestFailedStageAborted(t *testing.T) {
	f := &fake{unstageable: map[int]bool{0: true}}
	units := newUnits(2)
	var judged []State
	judge := func(_ int, ran []int) error {
		judged = append(judged, units[ran[0]].State)
		return errors.New("canary unreachable")
	}
	n, err := Run(f.target(), units, [][]int{{0}, {1}}, judge)
	if err == nil || n != 1 {
		t.Fatalf("Run = %d, %v", n, err)
	}
	if want := []string{"probe0/false", "stage0", "abort0"}; !reflect.DeepEqual(f.log, want) {
		t.Fatalf("steps %v, want %v", f.log, want)
	}
	if !reflect.DeepEqual(judged, []State{Failed}) || units[1].State != Pending {
		t.Fatalf("judged %v, unit 1 %v", judged, units[1].State)
	}
}

// A baseline probe error stops the rollout before the unit is staged; a
// post-commit probe error is a regression.
func TestProbeErrors(t *testing.T) {
	boom := errors.New("all cores quarantined")
	f := &fake{baselineErr: map[int]error{1: boom}}
	units := newUnits(2)
	n, err := Run(f.target(), units, [][]int{{0}, {1}}, func(int, []int) error { return nil })
	if !errors.Is(err, boom) || n != 2 || units[1].State != Pending || units[1].Wave != 1 {
		t.Fatalf("Run = %d, %v; unit 1 %+v", n, err, units[1])
	}
	u := Unit{State: Committed, Baseline: Sample{Processed: 8}, After: Sample{Processed: 8}, Err: boom}
	if !(Gate{}).Regressed(u) {
		t.Fatal("post-commit probe error not judged a regression")
	}
}

func TestGateRegressed(t *testing.T) {
	base := Sample{Processed: 100, Alarms: 1}
	for _, c := range []struct {
		name  string
		after Sample
		state State
		want  bool
	}{
		{"within budget", Sample{Processed: 100, Alarms: 2, Faults: 1}, Committed, false},
		{"above budget", Sample{Processed: 100, Alarms: 2, Faults: 2}, Committed, true},
		{"quarantine", Sample{Processed: 100, Quarantines: 1}, Committed, true},
		{"not committed", Sample{Processed: 100, Faults: 100}, Failed, false},
	} {
		u := Unit{State: c.state, Baseline: base, After: c.after}
		if got := (Gate{}).Regressed(u); got != c.want {
			t.Errorf("%s: Regressed = %v, want %v", c.name, got, c.want)
		}
	}
	if (Sample{}).Rate() != 0 {
		t.Error("empty sample rate not 0")
	}
	if Failed.String() != "failed" || State(9).String() != "state(9)" {
		t.Errorf("names %q %q", Failed, State(9))
	}
}
