package main

// npsim -tenant: the self-asserting two-tenant isolation drill. See
// internal/tenant, internal/campaign/tenantdrill.go and EXPERIMENTS.md
// §E17.

import (
	"fmt"

	"sdmmon/internal/campaign"
)

// runTenantDrill executes the hostile-vs-control tenant isolation drill:
// the gadget and noc families fired at one tenant of a partitioned plane,
// with the bystander tenant's counters required byte-identical to a run
// where the attack never happened. Exits non-zero on any violated
// isolation property.
func runTenantDrill(seed int64) error {
	fmt.Printf("npsim tenant: two-tenant isolation drill (seed %d)\n", seed)
	if err := campaign.TenantIsolationDrill(seed); err != nil {
		return &scenarioError{Mode: "tenant", Scenario: "isolation", Err: err}
	}
	fmt.Println("  victim: gadget detected, cores quarantined, noc flood held at the tenant's admission")
	fmt.Println("  bystander: counters, domain stats and telemetry byte-identical to the no-attack control")
	fmt.Println("npsim tenant: PASS")
	return nil
}
