package experiments

import (
	"fmt"
	"strings"

	"sdmmon/internal/campaign"
)

// e15Seeds is the seed-sweep width of the detection-latency tables.
const e15Seeds = 16

// E15 is the adversarial-campaign extension: mutation-driven attack
// campaigns (gadget chains, budgeted collision search, slow-drip duty
// titration, NoC burst shaping, baseline poisoning, and the burst and ramp
// graded-response drills) run against the live
// monitored plane, and the detection latency — packets admitted before the
// classifier reaches each family's detection level — is reported as a
// distribution over a seed sweep. A fleet drill then prices the collision
// family's one cracked parameter before and after a hash-parameter
// rotation.
func E15(seed int64) (string, error) {
	var sb strings.Builder
	sb.WriteString("E15 (extension): adversarial campaign corpus — detection-latency distributions\n")
	fmt.Fprintf(&sb, "  family      detected    p50 pkts   p99 pkts   min–max pkts   mean evasion depth\n")
	for _, family := range campaign.Families() {
		d, err := campaign.MeasureDetection(family, e15Seeds, seed)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "  %-10s   %2d/%-2d    %8d   %8d   %6d–%-6d   %14.1f\n",
			family, d.Detected, d.Runs, d.P50, d.P99, d.Min, d.Max, d.MeanEvasionDepth)
	}
	sb.WriteString("  (latencies are schedule-dominated: the FSM escalates on the first tick whose\n")
	sb.WriteString("  realized attack rate crosses a threshold, so families with fixed ramps detect\n")
	sb.WriteString("  at near-constant packet counts; undetected collision runs are quiet wins —\n")
	sb.WriteString("  the search collided before one full attack tick of probing.)\n\n")

	sb.WriteString("  fleet evasion drill: crack one router, replay fleet-wide, rotate, replay\n")
	d, err := campaign.CollisionFleetDrill(campaign.FleetDrillConfig{Seed: seed})
	if err != nil {
		return "", err
	}
	if err := d.Check(); err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "    crack cost: %d probes (budget %d), %d monitored cycles\n",
		d.CrackAttempts, d.ProbeBudget, d.CrackCycles)
	fmt.Fprintf(&sb, "    variant transfer: pre-rotation %d/%d routers, post-rotation %d/%d\n",
		d.PreTransfer, d.Routers, d.PostTransfer, d.Routers)
	fmt.Fprintf(&sb, "    post-rotation re-crack cost per router: p50=%d p99=%d probes (%d exhausted)\n",
		d.SearchP50, d.SearchP99, d.SearchExhausted)
	sb.WriteString("  reading: a homogeneous fleet falls to one collision; rotation forces the\n")
	sb.WriteString("  attacker to re-pay the search cost per router under an already-alerted plane.\n")
	return sb.String(), nil
}
