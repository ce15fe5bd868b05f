package campaign

import (
	"bytes"
	"reflect"
	"testing"

	"sdmmon/internal/threat"
)

// Every family must satisfy its own Check across a spread of seeds — the
// same self-assertions the npsim -campaign drill enforces.
func TestCampaignFamiliesCheck(t *testing.T) {
	for _, fam := range Families() {
		fam := fam
		t.Run(fam, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				r, err := RunCampaign(Config{Family: fam, Seed: seed})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := r.Check(); err != nil {
					t.Errorf("seed %d: %v", seed, err)
				}
				t.Logf("seed %d: peak=%v final=%v detect@%d mutants=%d/%d depth=%.2f iso=%d adm=%d stats=%+v",
					seed, r.Peak, r.Final, r.PacketsToDetect, r.MutantsDetected,
					len(r.Mutants), r.EvasionDepth, r.IsolatedCores, r.AdmissionTightened, r.Stats)
				if r.Collision != nil {
					t.Logf("seed %d: collision=%+v", seed, *r.Collision)
				}
				if r.SlowDrip != nil {
					t.Logf("seed %d: slowdrip=%+v", seed, *r.SlowDrip)
				}
			}
		})
	}
}

// A campaign is a pure function of its Spec: running the same spec twice —
// including once through the wire encoding — must reproduce the result
// byte for byte.
func TestCampaignReplayByteIdentity(t *testing.T) {
	for _, fam := range Families() {
		fam := fam
		t.Run(fam, func(t *testing.T) {
			spec, err := ResolveSpec(Config{Family: fam, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			r1, err := RunSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := DecodeSpec(spec.Encode())
			if err != nil {
				t.Fatal(err)
			}
			if decoded != spec {
				t.Fatalf("wire round trip changed the spec:\n got %+v\nwant %+v", decoded, spec)
			}
			r2, err := RunSpec(decoded)
			if err != nil {
				t.Fatal(err)
			}
			b1, err := r1.ReplayBytes()
			if err != nil {
				t.Fatal(err)
			}
			b2, err := r2.ReplayBytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b2) {
				t.Errorf("replay diverged over %d/%d bytes", len(b1), len(b2))
			}
			// Each incident must survive a strict decode and re-encode to
			// the same bytes (the fixed point the fuzzer widens).
			for i := range r1.Incidents {
				raw, err := r1.Incidents[i].Marshal()
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

// Different seeds must explore different mutants: the gadget corpus is
// seed-driven, so two seeds produce different trajectories.
func TestCampaignSeedsDiffer(t *testing.T) {
	r1, err := RunCampaign(Config{Family: FamilyGadget, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunCampaign(Config{Family: FamilyGadget, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := r1.ReplayBytes()
	b2, _ := r2.ReplayBytes()
	if bytes.Equal(b1, b2) {
		t.Error("seeds 1 and 2 produced identical campaigns")
	}
}

// The conservation invariant and graded-response bookkeeping hold for
// every family even while responses fire mid-campaign.
func TestCampaignConservationUnderResponses(t *testing.T) {
	for _, fam := range Families() {
		r, err := RunCampaign(Config{Family: fam, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Stats.Conserved() {
			t.Errorf("%s: conservation violated: %+v", fam, r.Stats)
		}
		if r.StagedZeroized && r.StagedLeft != 0 {
			t.Errorf("%s: zeroize fired but %d staged bundles remain", fam, r.StagedLeft)
		}
	}
}

// FreezeAt override: the poison ramp must evade an engine whose baselines
// keep absorbing (FreezeAt CRITICAL) and be caught by the frozen default.
func TestCampaignPoisonFreezeContrast(t *testing.T) {
	frozen, err := RunCampaign(Config{Family: FamilyPoison, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	unfrozen, err := RunCampaign(Config{Family: FamilyPoison, Seed: 3, FreezeAt: threat.Critical})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("frozen: peak=%v toMedium=%d; unfrozen: peak=%v toMedium=%d",
		frozen.Peak, frozen.PacketsToLevel[threat.Medium],
		unfrozen.Peak, unfrozen.PacketsToLevel[threat.Medium])
	if frozen.PacketsToLevel[threat.Medium] < 0 {
		t.Error("frozen baselines never reached MEDIUM")
	}
	if unfrozen.Peak >= frozen.Peak && unfrozen.PacketsToLevel[threat.Medium] >= 0 &&
		frozen.PacketsToLevel[threat.Medium] >= 0 &&
		unfrozen.PacketsToLevel[threat.Medium] <= frozen.PacketsToLevel[threat.Medium] {
		t.Errorf("poisoning did not degrade the unfrozen engine: frozen peak %v vs unfrozen %v",
			frozen.Peak, unfrozen.Peak)
	}
}

// The ramp's staircase duty must walk the classifier up one level per
// step, and its incident must carry forensics: signal readings, the
// actions that fired, pre-trigger events, and a stats delta. This is the
// trajectory EXPERIMENTS.md cites.
func TestCampaignRampTrajectoryShape(t *testing.T) {
	r, err := RunCampaign(Config{Family: FamilyRamp, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var ups []threat.Level
	for _, tr := range r.Trajectory {
		if tr.To > tr.From {
			ups = append(ups, tr.To)
		}
	}
	want := []threat.Level{threat.Low, threat.Medium, threat.High}
	if !reflect.DeepEqual(ups, want) {
		t.Errorf("ramp escalation sequence = %v, want %v", ups, want)
	}
	if len(r.Incidents) == 0 {
		t.Fatal("ramp captured no incidents")
	}
	inc := r.Incidents[0]
	if inc.To != threat.High || len(inc.Readings) == 0 || len(inc.Actions) == 0 {
		t.Errorf("incident missing forensics: %+v", inc)
	}
	if len(inc.Events) == 0 {
		t.Error("incident captured no pre-trigger events")
	}
	if len(inc.StatsDelta) == 0 {
		t.Error("incident carries no stats delta")
	}
}

// A mutant that never sent a packet is neither detected nor an evasion:
// RunSpec drops it from the tally. Ramp's duty-1 row never runs (core 1 is
// isolated at HIGH first), so ramp scores 3 of 3, not 3 of 4.
func TestCampaignMutantsOnlySent(t *testing.T) {
	for _, fam := range Families() {
		for seed := int64(1); seed <= 3; seed++ {
			r, err := RunCampaign(Config{Family: fam, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			detected := 0
			for _, m := range r.Mutants {
				if m.Packets == 0 {
					t.Errorf("%s seed %d: unsent mutant %+v in the tally", fam, seed, m)
				}
				if m.Detected {
					detected++
				}
			}
			if detected != r.MutantsDetected {
				t.Errorf("%s seed %d: MutantsDetected %d, rows say %d", fam, seed, r.MutantsDetected, detected)
			}
			if fam == FamilyRamp && (r.MutantsDetected != 3 || len(r.Mutants) != 3) {
				t.Errorf("ramp seed %d: %d/%d mutants detected, want 3/3", seed, r.MutantsDetected, len(r.Mutants))
			}
		}
	}
}
