package fleet

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"sdmmon/internal/fault"
	"sdmmon/internal/network"
	"sdmmon/internal/rollout"
)

// partitionedConfig is the acceptance drill: 1,000 routers under 15% link
// loss with group 5's backhaul cut for (effectively) the whole first run.
func partitionedConfig(seed int64) Config {
	return Config{
		Routers:   1000,
		GroupSize: 50,
		Seed:      seed,
		Faults:    fault.LinkFaults{DropRate: 0.15},
		Partitions: map[int][]fault.PartitionLink{
			5: {{Start: 0, End: 1e12}},
		},
	}
}

// runPartitioned executes the drill once: rollout with the partition open,
// save/decode the report, heal the partition, resume on a fresh
// controller. Returns the mid-run report bytes and the final report.
func runPartitioned(t *testing.T, seed int64) (midWire []byte, final *FleetReport, f *Fleet) {
	t.Helper()
	f = buildFleet(t, partitionedConfig(seed))
	ctl, err := NewController(f, RolloutConfig{Gate: testGate(), Policy: testPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ctl.Run()
	if err != nil {
		t.Fatalf("partitioned rollout errored: %v", err)
	}
	if rep.Completed {
		t.Fatal("rollout claims completion with a partitioned group")
	}
	unreachable := 0
	for i := range rep.Routers {
		if rep.Routers[i].State == rollout.Failed {
			unreachable++
			if !strings.HasPrefix(rep.Routers[i].ID, "np-02") {
				t.Errorf("router %s outside group 5 marked unreachable", rep.Routers[i].ID)
			}
		}
	}
	if unreachable != 50 {
		t.Fatalf("%d unreachable routers, want the partitioned group's 50", unreachable)
	}
	for w, st := range rep.Waves {
		if st != WaveCommitted {
			t.Errorf("wave %d status %v; the gate must pass over reachable routers", w, st)
		}
	}

	// Controller restart: serialize, decode, heal the backhaul, resume.
	midWire = rep.Marshal()
	decoded, err := UnmarshalFleetReport(midWire)
	if err != nil {
		t.Fatal(err)
	}
	f.Groups[5].Link.Partitions = nil
	ctl2, err := NewController(f, RolloutConfig{Gate: testGate(), Policy: testPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	final, err = ctl2.Resume(decoded)
	if err != nil {
		t.Fatalf("resume errored: %v", err)
	}
	if !final.Completed {
		t.Fatalf("resumed rollout did not complete: %d records", len(final.Routers))
	}
	return midWire, final, f
}

func TestRollout1000PartitionResumeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-router drill")
	}
	midA, finalA, fleetA := runPartitioned(t, 42)

	// Committed routers are never re-delivered on resume: their attempt
	// counts are frozen at the mid-run values.
	midRep, err := UnmarshalFleetReport(midA)
	if err != nil {
		t.Fatal(err)
	}
	attempts := map[string]uint32{}
	for i := range midRep.Routers {
		if midRep.Routers[i].State == rollout.Committed {
			attempts[midRep.Routers[i].ID] = midRep.Routers[i].Attempts
		}
	}
	for i := range finalA.Routers {
		if want, ok := attempts[finalA.Routers[i].ID]; ok && finalA.Routers[i].Attempts != want {
			t.Errorf("committed router %s re-delivered on resume: attempts %d -> %d",
				finalA.Routers[i].ID, want, finalA.Routers[i].Attempts)
		}
	}
	// Probe totals accumulate rather than recount: the resume adds exactly
	// one baseline window per straggler plus one post window per newly
	// committed router.
	hp := uint64(testGate().HealthPackets)
	wantDelta := 50*hp + 50*hp
	if got := finalA.Probe.Processed - midRep.Probe.Processed; got != wantDelta {
		t.Errorf("resume probe delta %d packets, want %d (no double counting)", got, wantDelta)
	}

	// The rotation invariant holds across the whole 1000-router fleet.
	seen := map[uint32]string{}
	for id, p := range fleetA.LiveParams() {
		if other, dup := seen[p]; dup {
			t.Errorf("routers %s and %s share parameter %#x", id, other, p)
		}
		seen[p] = id
	}
	if len(seen) != 1000 {
		t.Errorf("%d live parameters for 1000 routers", len(seen))
	}

	// Seeded re-run: identical wave trajectory and identical report bytes,
	// both at the mid-run save point and after resume.
	midB, finalB, _ := runPartitioned(t, 42)
	if !bytes.Equal(midA, midB) {
		t.Error("mid-run report bytes diverged across identical seeded runs")
	}
	if !bytes.Equal(finalA.Marshal(), finalB.Marshal()) {
		t.Error("final report bytes diverged across identical seeded runs")
	}
}

// poisonRouter injects a persistent instruction-store fault into the
// router's live core — the post-commit health regression the gate exists
// to catch.
func poisonRouter(t *testing.T, f *Fleet, r *SimRouter) {
	t.Helper()
	c, err := r.NP.Core(0)
	if err != nil {
		t.Fatalf("core of %s: %v", r.ID, err)
	}
	inj := fault.New(network.DeriveSeed(f.Seed, "poison-"+r.ID))
	words := c.Program().CodeWords()
	if !inj.Poison(c, words[1].Addr) {
		t.Fatalf("poison of %s failed", r.ID)
	}
}

func TestBadWaveHaltsAndRollsBack(t *testing.T) {
	f := buildFleet(t, Config{
		Routers:   200,
		GroupSize: 25,
		Seed:      7,
		Faults:    fault.LinkFaults{DropRate: 0.1, CorruptRate: 0.05},
	})
	initial, _ := f.Router("np-0000").LiveParam()
	ctl, err := NewController(f, RolloutConfig{
		Gate:   testGate(),
		Policy: testPolicy(),
		AfterCommit: func(r *SimRouter, wave int) {
			if wave == 2 {
				poisonRouter(t, f, r)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ctl.Run()
	if !errors.Is(err, ErrHalted) {
		t.Fatalf("err = %v, want ErrHalted", err)
	}
	if !rep.Halted || rep.Completed {
		t.Fatalf("halted=%v completed=%v", rep.Halted, rep.Completed)
	}
	if rep.Waves[0] != WaveCommitted || rep.Waves[1] != WaveCommitted {
		t.Errorf("canary/wave-1 statuses %v %v, want committed", rep.Waves[0], rep.Waves[1])
	}
	if rep.Waves[2] != WaveRolledBack {
		t.Errorf("wave 2 status %v, want rolled-back", rep.Waves[2])
	}
	if rep.Waves[3] != WavePending {
		t.Errorf("wave 3 status %v, want pending (never reached)", rep.Waves[3])
	}

	for i := range rep.Routers {
		rec := &rep.Routers[i]
		r := f.Router(rec.ID)
		switch rec.Wave {
		case 0, 1:
			// Canary and wave-1 stay committed on their rotated parameters
			// and healthy.
			if rec.State != rollout.Committed {
				t.Errorf("%s (wave %d) state %v, want committed", rec.ID, rec.Wave, rec.State)
			}
			if p, _ := r.LiveParam(); p == initial {
				t.Errorf("%s still on the initial shared parameter", rec.ID)
			}
			obs, _ := r.Probe(16)
			if obs.Alarms != 0 || obs.Faults != 0 {
				t.Errorf("%s unhealthy after halt: %+v", rec.ID, obs)
			}
		case 2:
			if rec.State != rollout.RolledBack {
				t.Errorf("%s (wave 2) state %v, want rolled-back", rec.ID, rec.State)
				continue
			}
			// The rollback restored the previous (clean) image: healthy
			// again, back on the initial parameter.
			if p, _ := r.LiveParam(); p != initial {
				t.Errorf("%s rolled back but parameter %#x != initial %#x", rec.ID, p, initial)
			}
			obs, _ := r.Probe(16)
			if obs.Alarms != 0 || obs.Faults != 0 {
				t.Errorf("%s unhealthy after rollback: %+v", rec.ID, obs)
			}
		default:
			if rec.State != rollout.Pending {
				t.Errorf("%s (wave %d) state %v, want pending", rec.ID, rec.Wave, rec.State)
			}
		}
	}
}

func TestCrashedRouterRecoversOnResume(t *testing.T) {
	f := buildFleet(t, Config{Routers: 16, GroupSize: 8, Seed: 13})
	crashed := f.Router("np-0005")
	crashed.CrashAfterStage()
	ctl, err := NewController(f, RolloutConfig{Gate: testGate(), Policy: testPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ctl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed {
		t.Fatal("rollout completed despite a mid-wave crash")
	}
	var rec *RouterRecord
	for i := range rep.Routers {
		if rep.Routers[i].ID == "np-0005" {
			rec = &rep.Routers[i]
		} else if rep.Routers[i].State != rollout.Committed {
			t.Errorf("%s state %v, want committed", rep.Routers[i].ID, rep.Routers[i].State)
		}
	}
	if rec.State != rollout.Failed {
		t.Fatalf("crashed router state %v, want unreachable", rec.State)
	}

	// The crash lost the staged bundle but not the ledger, and the ledger
	// only advances at commit — so the resume's re-delivery of the same
	// release must not be rejected as a downgrade.
	decoded, err := UnmarshalFleetReport(rep.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	ctl2, err := NewController(f, RolloutConfig{Gate: testGate(), Policy: testPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	final, err := ctl2.Resume(decoded)
	if err != nil {
		t.Fatalf("resume errored: %v", err)
	}
	if !final.Completed {
		t.Fatal("resume did not complete")
	}
	for i := range final.Routers {
		if final.Routers[i].ID == "np-0005" && final.Routers[i].State != rollout.Committed {
			t.Errorf("crashed router not committed after resume: %v", final.Routers[i].State)
		}
		if strings.Contains(final.Routers[i].LastErr, "sequence regression") {
			t.Errorf("%s hit the downgrade guard on resume: %s", final.Routers[i].ID, final.Routers[i].LastErr)
		}
	}
}

func TestByzantineRouterCannotHideRegression(t *testing.T) {
	f := buildFleet(t, Config{Routers: 32, GroupSize: 8, Seed: 23})
	liar := f.Router("np-0003") // wave 2 member (indices 1..7)
	liar.Byzantine()
	ctl, err := NewController(f, RolloutConfig{
		Gate:   testGate(),
		Policy: testPolicy(),
		AfterCommit: func(r *SimRouter, wave int) {
			if r.ID == "np-0003" {
				poisonRouter(t, f, r)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ctl.Run()
	if !errors.Is(err, ErrHalted) {
		t.Fatalf("err = %v, want ErrHalted: the gate must use observed health, not the router's claim", err)
	}
	var liarRec *RouterRecord
	for i := range rep.Routers {
		if rep.Routers[i].ID == "np-0003" {
			liarRec = &rep.Routers[i]
		}
	}
	if !liarRec.Byzantine {
		t.Error("lying router not flagged byzantine")
	}
	if liarRec.State != rollout.RolledBack {
		t.Errorf("lying router state %v, want rolled-back", liarRec.State)
	}
}
