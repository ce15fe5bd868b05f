package threat

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"sdmmon/internal/apps"
	"sdmmon/internal/mhash"
	"sdmmon/internal/monitor"
	"sdmmon/internal/network"
	"sdmmon/internal/npu"
	"sdmmon/internal/obs"
	"sdmmon/internal/shard"
)

// The headline guarantee: a campaign is a pure function of its
// configuration. Running the same seeded campaign twice must reproduce the
// threat-level trajectory exactly and serialize byte-identical incident
// records.
func TestThreatCampaignReplayDeterministic(t *testing.T) {
	for _, family := range Families() {
		t.Run(family, func(t *testing.T) {
			cfg := CampaignConfig{Family: family, Seed: 7}
			a, err := RunCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Check(); err != nil {
				t.Errorf("first run fails its own family assertions: %v", err)
			}
			if !reflect.DeepEqual(a.Trajectory, b.Trajectory) {
				t.Errorf("trajectories diverged across replays:\n  run A: %+v\n  run B: %+v",
					a.Trajectory, b.Trajectory)
			}
			if !bytes.Equal(a.IncidentBytes, b.IncidentBytes) {
				t.Errorf("incident records not byte-identical across replays: %d vs %d bytes",
					len(a.IncidentBytes), len(b.IncidentBytes))
			}
			if a.Stats != b.Stats {
				t.Errorf("packet accounting diverged: %+v vs %+v", a.Stats, b.Stats)
			}
			// Each serialized incident must survive a strict decode and
			// re-encode to the same bytes (the fixed point the fuzzer widens).
			for i := range a.Incidents {
				raw, err := a.Incidents[i].Marshal()
				if err != nil {
					t.Fatalf("incident %d: %v", i, err)
				}
				back, err := UnmarshalIncident(raw)
				if err != nil {
					t.Fatalf("incident %d does not survive a strict decode: %v", i, err)
				}
				raw2, err := back.Marshal()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(raw, raw2) {
					t.Errorf("incident %d is not a marshal fixed point", i)
				}
			}
		})
	}
}

// Every campaign family must hold its qualitative trajectory across seeds,
// not just at one lucky value.
func TestThreatCampaignSeedRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed campaign sweep")
	}
	for _, family := range Families() {
		for seed := int64(1); seed <= 5; seed++ {
			res, err := RunCampaign(CampaignConfig{Family: family, Seed: seed})
			if err != nil {
				t.Fatalf("%s seed %d: %v", family, seed, err)
			}
			if err := res.Check(); err != nil {
				t.Errorf("%s seed %d: %v", family, seed, err)
			}
		}
	}
}

// The evasion regression: an attack tuned just under the EWMA baseline's
// sensitivity must never escalate past LOW, never capture an incident, and
// never trigger a response.
func TestThreatSlowDripStaysLow(t *testing.T) {
	res, err := RunCampaign(CampaignConfig{Family: FamilySlowDrip, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Peak > Low {
		t.Errorf("slow drip escalated to %s, must stay <= %s", res.Peak, Low)
	}
	if len(res.Incidents) != 0 {
		t.Errorf("slow drip captured %d incidents, want 0", len(res.Incidents))
	}
	if res.IsolatedCores != 0 || res.FailedShards != 0 || res.LockdownFired || res.StagedZeroized {
		t.Errorf("slow drip triggered responses: %+v", res)
	}
	if !res.Stats.Conserved() {
		t.Errorf("packet conservation violated: %+v", res.Stats)
	}
	if res.Stats.Alarms == 0 {
		t.Error("slow drip never alarmed at all — the drip fixture is not attacking")
	}
}

// Campaign model conservation must hold mid-run at every tick, not just at
// the end — responses (rehash sheds, lockdown starvation, tightening) fire
// mid-traffic and each must keep the books balanced. Exercised across the
// families so every response path is covered.
func TestThreatCampaignConservationPerFamily(t *testing.T) {
	for _, family := range Families() {
		res, err := RunCampaign(CampaignConfig{Family: family, Seed: 11})
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		if !res.Stats.Conserved() {
			t.Errorf("%s: conservation violated: %+v", family, res.Stats)
		}
	}
}

// liveNP builds one installed line card publishing to its own collector.
func liveNP(t *testing.T, cores int, seed int64, col *obs.Collector) *npu.NP {
	t.Helper()
	np, err := npu.New(npu.Config{Cores: cores, MonitorsEnabled: true, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	c := newTestCampaignBundle(t, seed)
	if err := np.InstallAll(c.app, c.bin, c.gb, c.param); err != nil {
		t.Fatal(err)
	}
	return np
}

type testBundle struct {
	app     string
	bin, gb []byte
	param   uint32
}

// newTestCampaignBundle builds the ipv4cm program + monitor graph the
// live-plane tests install.
func newTestCampaignBundle(t *testing.T, seed int64) testBundle {
	t.Helper()
	app, err := apps.ByName("ipv4cm")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := app.Program()
	if err != nil {
		t.Fatal(err)
	}
	param := uint32(seed)*2654435761 + 0x7417
	g, err := monitor.Extract(prog, mhash.NewMerkle(param))
	if err != nil {
		t.Fatal(err)
	}
	return testBundle{app: "ipv4cm", bin: prog.Serialize(), gb: g.Serialize(), param: param}
}

// TestThreatEngineConcurrentDrains runs the real engine — Sampler,
// PlaneResponder, forensic capture — against a live concurrent shard.Plane
// while submitter goroutines race the workers. Run under -race this pins
// the engine's thread-safety against the plane; it makes no byte-identity
// claims (the concurrent plane cannot give them and does not try).
func TestThreatEngineConcurrentDrains(t *testing.T) {
	const shards, cores = 3, 2
	cols := make([]*obs.Collector, shards)
	nps := make([]*npu.NP, shards)
	for i := range nps {
		cols[i] = obs.New(64)
		nps[i] = liveNP(t, cores, int64(40+i), cols[i])
	}
	plane, err := shard.NewPlane(shard.Config{
		NPs:           nps,
		QueueCapacity: 32,
		MarkThreshold: 1, // mark aggressively so a surge reads as pressure
		BatchSize:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	responder, err := NewPlaneResponder(plane, nps)
	if err != nil {
		t.Fatal(err)
	}
	sampler, err := NewSampler(SamplerConfig{Plane: plane, NPs: nps})
	if err != nil {
		t.Fatal(err)
	}
	ecfg := CampaignEngineConfig()
	ecfg.Responder = responder
	ecfg.Forensics = cols
	eng, err := NewEngine(ecfg)
	if err != nil {
		t.Fatal(err)
	}

	gen, err := network.NewFlowGenerator(256, 17)
	if err != nil {
		t.Fatal(err)
	}
	var genMu sync.Mutex
	next := func() []byte {
		genMu.Lock()
		defer genMu.Unlock()
		return gen.Next()
	}

	submit := func(n, workers int) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n/workers; i++ {
					plane.Submit(next())
				}
			}()
		}
		wg.Wait()
	}

	escalated := false
	for tick := 0; tick < 24; tick++ {
		if tick >= 10 && tick < 14 {
			// Surge phase: far more arrivals than the queues hold, from
			// racing submitters. Marks and tail drops spike the
			// backpressure signal.
			submit(4000, 8)
		} else {
			submit(30, 3)
		}
		tr, err := eng.Tick(Tick(tick), sampler.Collect())
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		if tr != nil && tr.To > tr.From {
			escalated = true
		}
		// Conservation must hold at every mid-run snapshot, with responses
		// (tighten, lockdown, relax) firing between submissions.
		if st := plane.Stats(); !st.Conserved() {
			t.Fatalf("tick %d: mid-run conservation violated: %+v", tick, st)
		}
	}
	plane.Close()

	st := plane.Stats()
	if !st.Conserved() {
		t.Fatalf("conservation violated after close: %+v", st)
	}
	if !escalated {
		t.Error("the surge never escalated the engine — live wiring is not sensing the plane")
	}
	traj := eng.Trajectory()
	for i := 1; i < len(traj); i++ {
		if traj[i].Tick <= traj[i-1].Tick {
			t.Errorf("trajectory ticks not strictly increasing: %+v", traj)
		}
	}
	if _, err := eng.IncidentBytes(); err != nil {
		t.Errorf("incident serialization failed: %v", err)
	}
}

// A level trajectory rendered per family, pinned for documentation drift:
// this is the table EXPERIMENTS.md cites.
func TestThreatCampaignTrajectoryShape(t *testing.T) {
	res, err := RunCampaign(CampaignConfig{Family: FamilyRamp, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var ups []Level
	for _, tr := range res.Trajectory {
		if tr.To > tr.From {
			ups = append(ups, tr.To)
		}
	}
	want := []Level{Low, Medium, High}
	if !reflect.DeepEqual(ups, want) {
		t.Errorf("ramp escalation sequence = %v, want %v (staircase duty must walk the classifier up)",
			ups, want)
	}
	// The ramp's incident must carry forensics: readings, pre-trigger
	// events, and the actions that fired.
	if len(res.Incidents) == 0 {
		t.Fatal("ramp captured no incidents")
	}
	inc := res.Incidents[0]
	if inc.To != High || len(inc.Readings) == 0 || len(inc.Actions) == 0 {
		t.Errorf("incident missing forensics: %+v", inc)
	}
	if len(inc.Events) == 0 {
		t.Error("incident captured no pre-trigger events")
	}
	if fmt.Sprintf("%v", inc.StatsDelta) == "map[]" {
		t.Error("incident carries no stats delta")
	}
}
