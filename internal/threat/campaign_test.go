package threat_test

import (
	"bytes"
	"reflect"
	"testing"

	"sdmmon/internal/campaign"
	"sdmmon/internal/threat"
)

// The engine under the deterministic campaign drills: burst drives the
// CRITICAL battery, ramp walks the staircase, and a sub-floor slowdrip
// probes the EWMA baseline's sensitivity.
var engineFamilies = []string{campaign.FamilyBurst, campaign.FamilyRamp, campaign.FamilySlowDrip}

// engineConfig pins the slowdrip family to a fixed duty below
// campaign.SlowDripDutyFloor, so it tests evasion rather than titration.
func engineConfig(family string, seed int64) campaign.Config {
	cfg := campaign.Config{Family: family, Seed: seed}
	if family == campaign.FamilySlowDrip {
		cfg.Duty = 0.10
	}
	return cfg
}

// The headline guarantee: a campaign is a pure function of its
// configuration. Running the same seeded campaign twice must reproduce the
// threat-level trajectory exactly and serialize byte-identical incident
// records.
func TestThreatCampaignReplayDeterministic(t *testing.T) {
	for _, family := range engineFamilies {
		t.Run(family, func(t *testing.T) {
			cfg := engineConfig(family, 7)
			a, err := campaign.RunCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := campaign.RunCampaign(cfg)
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
				back, err := threat.UnmarshalIncident(raw)
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
	for _, family := range engineFamilies {
		for seed := int64(1); seed <= 5; seed++ {
			res, err := campaign.RunCampaign(engineConfig(family, seed))
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
	res, err := campaign.RunCampaign(engineConfig(campaign.FamilySlowDrip, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Peak > threat.Low {
		t.Errorf("slow drip escalated to %s, must stay <= %s", res.Peak, threat.Low)
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
	if res.MutantsDetected == 0 {
		t.Error("slow drip never alarmed at all — the drip fixture is not attacking")
	}
}

// Campaign conservation must hold mid-run at every tick, not just at the
// end — responses (rehash sheds, lockdown starvation, tightening) fire
// mid-traffic and each must keep the books balanced. RunCampaign fails on
// the first tick whose books do not balance; the final stats are checked
// here as well.
func TestThreatCampaignConservationPerFamily(t *testing.T) {
	for _, family := range engineFamilies {
		res, err := campaign.RunCampaign(engineConfig(family, 11))
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		if !res.Stats.Conserved() {
			t.Errorf("%s: conservation violated: %+v", family, res.Stats)
		}
	}
}

// FreezeAt under adversarial pressure: the campaign engine's poison family
// generates a baseline-poisoning ramp (0 → 0.10 → 0.22 → 0.28 → strike at
// 3/7 duty) against a live engine. With the campaign default FreezeAt LOW
// the baselines freeze at the clean floor on the first LOW transition and
// the classifier reaches MEDIUM while the ramp is still climbing; with
// FreezeAt CRITICAL the EWMA keeps absorbing the ramp and the strike lands
// a z-score under 2 — the engine never leaves LOW. The freeze gate is the
// only difference between the two runs.
func TestFreezeAtContainsCampaignPoisoning(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		frozen, err := campaign.RunCampaign(campaign.Config{
			Family: campaign.FamilyPoison, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		unfrozen, err := campaign.RunCampaign(campaign.Config{
			Family: campaign.FamilyPoison, Seed: seed, FreezeAt: threat.Critical,
		})
		if err != nil {
			t.Fatal(err)
		}

		if err := frozen.Check(); err != nil {
			t.Errorf("seed %d: frozen run failed its own check: %v", seed, err)
		}
		if frozen.PacketsToLevel[threat.Medium] < 0 {
			t.Errorf("seed %d: frozen baselines never reached MEDIUM — FreezeAt is not containing the ramp", seed)
		}
		if unfrozen.PacketsToLevel[threat.Medium] >= 0 {
			t.Errorf("seed %d: unfrozen baselines reached MEDIUM at packet %d — the ramp failed to poison them",
				seed, unfrozen.PacketsToLevel[threat.Medium])
		}
		if unfrozen.Peak >= frozen.Peak {
			t.Errorf("seed %d: unfrozen peak %v >= frozen peak %v — freezing bought nothing",
				seed, unfrozen.Peak, frozen.Peak)
		}
		// Both engines ran the identical packet sequence; the evasion depth
		// (poison packets absorbed at or below LOW) must be strictly larger
		// without freezing.
		if unfrozen.EvasionDepth <= frozen.EvasionDepth {
			t.Errorf("seed %d: unfrozen evasion depth %.0f <= frozen %.0f",
				seed, unfrozen.EvasionDepth, frozen.EvasionDepth)
		}
		t.Logf("seed %d: frozen peak=%v toMedium=%d depth=%.0f; unfrozen peak=%v toMedium=%d depth=%.0f",
			seed, frozen.Peak, frozen.PacketsToLevel[threat.Medium], frozen.EvasionDepth,
			unfrozen.Peak, unfrozen.PacketsToLevel[threat.Medium], unfrozen.EvasionDepth)
	}
}
