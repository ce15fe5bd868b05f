package fleet

import (
	"errors"
	"testing"

	"sdmmon/internal/fault"
	"sdmmon/internal/network"
	"sdmmon/internal/rollout"
)

// testPolicy keeps retry budgets small so partitioned waves fail fast.
func testPolicy() network.RetryPolicy {
	return network.RetryPolicy{
		MaxAttempts:        8,
		BaseBackoffSeconds: 0.1,
		MaxBackoffSeconds:  2,
		JitterFrac:         0.25,
	}
}

func testGate() rollout.Gate {
	return rollout.Gate{HealthPackets: 8}
}

func buildFleet(t *testing.T, cfg Config) *Fleet {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRolloutCleanCompletes(t *testing.T) {
	f := buildFleet(t, Config{
		Routers:   64,
		GroupSize: 16,
		Seed:      11,
		Faults:    fault.LinkFaults{DropRate: 0.05, CorruptRate: 0.02},
	})
	ctl, err := NewController(f, RolloutConfig{Gate: testGate(), Policy: testPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ctl.Run()
	if err != nil {
		t.Fatalf("rollout failed: %v", err)
	}
	if !rep.Completed {
		t.Fatalf("rollout not completed: %+v", rep)
	}
	for w, st := range rep.Waves {
		if st != WaveCommitted {
			t.Errorf("wave %d status %v, want committed", w, st)
		}
	}
	for i := range rep.Routers {
		if rep.Routers[i].State != rollout.Committed {
			t.Errorf("router %s state %v", rep.Routers[i].ID, rep.Routers[i].State)
		}
		if rep.Routers[i].Byzantine {
			t.Errorf("router %s falsely flagged byzantine", rep.Routers[i].ID)
		}
	}
	if rep.MakespanSeconds <= 0 {
		t.Error("zero makespan for a lossy rollout")
	}

	// The rotation invariant: pairwise-distinct live parameters.
	params := f.LiveParams()
	if len(params) != 64 {
		t.Fatalf("LiveParams returned %d routers", len(params))
	}
	seen := map[uint32]string{}
	for id, p := range params {
		if other, dup := seen[p]; dup {
			t.Errorf("routers %s and %s share parameter %#x", id, other, p)
		}
		seen[p] = id
	}
}

func TestRolloutReportRoundTrip(t *testing.T) {
	f := buildFleet(t, Config{Routers: 8, GroupSize: 4, Seed: 3})
	ctl, err := NewController(f, RolloutConfig{Gate: testGate(), Policy: testPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ctl.Run()
	if err != nil {
		t.Fatal(err)
	}
	wire := rep.Marshal()
	back, err := UnmarshalFleetReport(wire)
	if err != nil {
		t.Fatalf("round trip decode: %v", err)
	}
	wire2 := back.Marshal()
	if string(wire) != string(wire2) {
		t.Error("report encoding is not a fixed point")
	}
	if back.Release != rep.Release || back.Completed != rep.Completed {
		t.Errorf("round trip mutated header: %+v vs %+v", back, rep)
	}
	if len(back.Routers) != len(rep.Routers) {
		t.Fatalf("round trip lost records: %d vs %d", len(back.Routers), len(rep.Routers))
	}

	// Strict decoder: truncations and bit flips must never parse.
	for cut := 0; cut < len(wire); cut += 7 {
		if _, err := UnmarshalFleetReport(wire[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
	flipped := append([]byte(nil), wire...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := UnmarshalFleetReport(flipped); err == nil {
		t.Error("bit-flipped report decoded")
	}
}

func TestResumeRejectsHaltedOrMismatched(t *testing.T) {
	f := buildFleet(t, Config{Routers: 8, GroupSize: 4, Seed: 5})
	ctl, err := NewController(f, RolloutConfig{Gate: testGate(), Policy: testPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Resume(&FleetReport{Seed: 5, Halted: true}); !errors.Is(err, ErrNotResumable) {
		t.Errorf("halted report resumed: %v", err)
	}
	if _, err := ctl.Resume(&FleetReport{Seed: 99}); !errors.Is(err, ErrNotResumable) {
		t.Errorf("mismatched seed resumed: %v", err)
	}
	outOfPlan := &FleetReport{Seed: 5, Waves: make([]WaveStatus, 4), GroupClocks: make([]float64, 2),
		Routers: []RouterRecord{{ID: "np-0000", Wave: 9}}}
	if _, err := ctl.Resume(outOfPlan); !errors.Is(err, ErrNotResumable) {
		t.Errorf("router outside the wave plan resumed: %v", err)
	}
}
