package main

import (
	"bytes"
	"fmt"
	"os"

	"sdmmon/internal/campaign"
	"sdmmon/internal/threat"
)

// campaignSweepSeeds is how many seeds the detection-latency sweep runs
// per family (shared by -campaign and the -bench campaign_detection
// series); small enough to stay interactive, large enough for a stable
// p50.
const campaignSweepSeeds = 16

// runCampaign executes the adversarial campaign drill: each requested
// family runs once directly and once from its wire-encoded spec (the
// encode → decode → re-run path an operator replaying a captured campaign
// would take), and the drill fails — non-zero exit — unless the two
// results are byte-identical under the canonical replay encoding and the
// result passes the family's own self-assertions. A multi-seed sweep then
// reports the packets-to-detection distribution, and `all` finishes with
// the fleet-wide collision evasion drill (crack → replay → rotate →
// replay). A non-empty incidentsPath receives the incident records of
// every direct run as JSON lines (threat.WriteIncidents).
func runCampaign(scenario string, seed int64, incidentsPath string) error {
	families := campaign.Families()
	if scenario != "all" {
		if err := campaignFamilyKnown(scenario); err != nil {
			return err
		}
		families = []string{scenario}
	}

	var captured []threat.IncidentRecord
	for _, family := range families {
		fmt.Printf("attack campaign %q, seed %d:\n", family, seed)
		a, err := campaign.RunCampaign(campaign.Config{Family: family, Seed: seed})
		if err != nil {
			return &scenarioError{Mode: "campaign", Scenario: family, Err: err}
		}
		// Replay through the wire codec: the second run starts from the
		// decoded bytes of the first run's resolved spec.
		spec, err := campaign.DecodeSpec(a.Spec.Encode())
		if err != nil {
			return &scenarioError{Mode: "campaign", Scenario: family,
				Err: fmt.Errorf("wire round trip: %w", err)}
		}
		b, err := campaign.RunSpec(spec)
		if err != nil {
			return &scenarioError{Mode: "campaign", Scenario: family, Err: err}
		}
		ab, err := a.ReplayBytes()
		if err != nil {
			return &scenarioError{Mode: "campaign", Scenario: family, Err: err}
		}
		bb, err := b.ReplayBytes()
		if err != nil {
			return &scenarioError{Mode: "campaign", Scenario: family, Err: err}
		}
		if !bytes.Equal(ab, bb) {
			return &scenarioError{Mode: "campaign", Scenario: family,
				Err: fmt.Errorf("replay diverged: results not byte-identical across the wire round trip (%d vs %d bytes)",
					len(ab), len(bb))}
		}
		if err := a.Check(); err != nil {
			return &scenarioError{Mode: "campaign", Scenario: family, Err: err}
		}
		captured = append(captured, a.Incidents...)

		fmt.Printf("  peak=%s final=%s detect@%d packets  mutants %d/%d detected  evasion depth %.1f\n",
			a.Peak, a.Final, a.PacketsToDetect, a.MutantsDetected, len(a.Mutants), a.EvasionDepth)
		fmt.Printf("  responses: isolated=%d tightened=%d rehashed=%d zeroized=%v lockdown=%v  incidents=%d  replay=byte-identical (%d bytes)\n",
			a.IsolatedCores, a.AdmissionTightened, a.FailedShards, a.StagedZeroized, a.LockdownFired, len(a.Incidents), len(ab))
		st := a.Stats
		fmt.Printf("  conservation: arrived=%d = forwarded=%d + appdrops=%d + rejected=%d + taildrops=%d + starved=%d + backlog=%d (marked=%d)\n",
			st.Arrived, st.Forwarded, st.AppDrops, st.Rejected, st.TailDrops, st.Starved, st.Backlog, st.Marked)
		if a.Collision != nil {
			fmt.Printf("  collision search: %d probes, %d cycles, found=%v exhausted=%v\n",
				a.Collision.Attempts, a.Collision.Cycles, a.Collision.Found, a.Collision.Exhausted)
		}
		if a.SlowDrip != nil {
			fmt.Printf("  slowdrip: frontier duty %.4f (floor %.2f), %d packets slipped over %d epochs\n",
				a.SlowDrip.FrontierDuty, campaign.SlowDripDutyFloor, a.SlowDrip.SlippedPackets, a.SlowDrip.Epochs)
		}

		d, err := campaign.MeasureDetection(family, campaignSweepSeeds, seed)
		if err != nil {
			return &scenarioError{Mode: "campaign", Scenario: family, Err: err}
		}
		fmt.Printf("  detection latency over %d seeds: %d/%d detected  p50=%d p99=%d min=%d max=%d pkts  mean evasion %.1f\n\n",
			d.Runs, d.Detected, d.Runs, d.P50, d.P99, d.Min, d.Max, d.MeanEvasionDepth)
	}

	if incidentsPath != "" {
		f, err := os.Create(incidentsPath)
		if err != nil {
			return err
		}
		err = threat.WriteIncidents(f, captured)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing incidents to %s: %w", incidentsPath, err)
		}
		fmt.Printf("wrote %d incident records to %s\n", len(captured), incidentsPath)
	}
	if scenario == "all" {
		return runFleetEvasion(seed)
	}
	return nil
}

// runFleetEvasion runs the fleet-wide collision evasion drill twice and
// self-asserts determinism plus the drill's own containment checks.
func runFleetEvasion(seed int64) error {
	fmt.Printf("fleet evasion drill, seed %d:\n", seed)
	cfg := campaign.FleetDrillConfig{Seed: seed}
	a, err := campaign.CollisionFleetDrill(cfg)
	if err != nil {
		return &scenarioError{Mode: "campaign", Scenario: "fleet-evasion", Err: err}
	}
	b, err := campaign.CollisionFleetDrill(cfg)
	if err != nil {
		return &scenarioError{Mode: "campaign", Scenario: "fleet-evasion", Err: err}
	}
	if *a != *b {
		return &scenarioError{Mode: "campaign", Scenario: "fleet-evasion",
			Err: fmt.Errorf("replay diverged: drill results differ across identical runs")}
	}
	if err := a.Check(); err != nil {
		return &scenarioError{Mode: "campaign", Scenario: "fleet-evasion", Err: err}
	}
	fmt.Printf("  cracked router 0 in %d probes (%d cycles, budget %d)\n",
		a.CrackAttempts, a.CrackCycles, a.ProbeBudget)
	fmt.Printf("  variant transfer: pre-rotation %d/%d routers, post-rotation %d/%d\n",
		a.PreTransfer, a.Routers, a.PostTransfer, a.Routers)
	fmt.Printf("  post-rotation re-crack cost: p50=%d p99=%d probes, %d searches exhausted\n",
		a.SearchP50, a.SearchP99, a.SearchExhausted)
	return nil
}

// campaignFamilyKnown validates a family name against the canonical list.
func campaignFamilyKnown(name string) error {
	for _, f := range campaign.Families() {
		if f == name {
			return nil
		}
	}
	return fmt.Errorf("npsim: unknown campaign family %q (want %v or all)", name, campaign.Families())
}
