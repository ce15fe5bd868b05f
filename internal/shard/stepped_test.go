package shard

// Stepped-plane tests: a plane built with Config.Stepped has no workers,
// drains only through Step (and a synchronous Close), and is therefore a
// pure function of its submission and step schedule.

import (
	"reflect"
	"testing"

	"sdmmon/internal/npu"
)

// steppedRun drives a two-shard, two-tenant stepped plane — tenant "a" on
// a one-core domain, "b" on the other core — through a fixed schedule that
// fails a shard, quarantines a's only core on the surviving shard (killing
// that lane), locks the plane down and reopens it, and tightens admission.
// Conservation, in aggregate and per tenant, must hold after every Step;
// the stepped Close must leave no backlog.
func steppedRun(t *testing.T) PlaneStats {
	t.Helper()
	nps := make([]*npu.NP, 2)
	for i := range nps {
		nps[i] = planeNP(t, 2, int64(i))
		if err := nps[i].SetDomains([]npu.DomainSpec{
			{Name: "a", Cores: []int{0}},
			{Name: "b", Cores: []int{1}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	plane, err := NewPlane(Config{
		NPs:           nps,
		QueueCapacity: 16,
		BatchSize:     4,
		Tenancy:       &TenancyConfig{Tenants: []string{"a", "b"}, Classify: classifyBySrc},
		Stepped:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	conserved := func(stage string) {
		t.Helper()
		st := plane.Stats()
		if !st.Conserved() {
			t.Fatalf("%s: aggregate not conserved: %+v", stage, st.Ledger)
		}
		for _, ts := range st.Tenants {
			if !ts.Conserved() {
				t.Fatalf("%s: tenant %s not conserved: %+v", stage, ts.Name, ts.Ledger)
			}
		}
	}
	for round := 0; round < 12; round++ {
		for i := 0; i < 24; i++ {
			plane.Submit(tenantPkt(t, i%2, uint16(round*24+i)))
		}
		switch round {
		case 2:
			if err := plane.FailShard(1); err != nil {
				t.Fatal(err)
			}
		case 4:
			if err := nps[0].Quarantine(0); err != nil {
				t.Fatal(err)
			}
		case 6:
			plane.Lockdown()
		case 7:
			plane.ClearLockdown()
		case 8:
			if err := plane.SetAdmission(0, 4, 2); err != nil {
				t.Fatal(err)
			}
		}
		for s := 0; s < plane.Shards(); s++ {
			if _, err := plane.Step(s, 16); err != nil {
				t.Fatal(err)
			}
			conserved("after a Step")
		}
	}
	st := plane.Stats()
	if !st.Shards[1].Failed || st.Shards[1].Backlog != 0 {
		t.Errorf("failed shard 1 not shed on its Step: %+v", st.Shards[1])
	}
	if st.Tenants[0].LanesDead != 1 {
		t.Errorf("quarantining a's only core killed %d lanes, want 1", st.Tenants[0].LanesDead)
	}
	if st.TailDrops == 0 || st.Starved == 0 {
		t.Errorf("schedule exercised no tail drop or starvation: %+v", st.Ledger)
	}
	plane.Close()
	conserved("after Close")
	st = plane.Stats()
	if st.Backlog != 0 {
		t.Errorf("stepped Close left a backlog of %d", st.Backlog)
	}
	return st
}

// TestSteppedPlaneConservedEveryStep runs the schedule once.
func TestSteppedPlaneConservedEveryStep(t *testing.T) {
	steppedRun(t)
}

// TestSteppedPlaneDeterministic: two stepped runs of one schedule give
// identical statistics, counter for counter.
func TestSteppedPlaneDeterministic(t *testing.T) {
	a, b := steppedRun(t), steppedRun(t)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("stepped runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestStepRefusedWithWorkers: a plane with drain workers has no Step.
func TestStepRefusedWithWorkers(t *testing.T) {
	plane, err := NewPlane(Config{NPs: []*npu.NP{planeNP(t, 2, 1)}, QueueCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()
	if _, err := plane.Step(0, 8); err == nil {
		t.Error("Step on a plane with workers succeeded")
	}
}
