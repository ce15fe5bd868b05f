package threat

import (
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

// liveNP builds one monitored line card from cfg and installs ipv4cm under
// a seed-derived hash parameter on every core.
func liveNP(t *testing.T, cfg npu.Config, seed int64) *npu.NP {
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
	cfg.MonitorsEnabled = true
	np, err := npu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := np.InstallAll("ipv4cm", prog.Serialize(), g.Serialize(), param); err != nil {
		t.Fatal(err)
	}
	return np
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
		nps[i] = liveNP(t, npu.Config{Cores: cores, Obs: cols[i]}, int64(40+i))
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
