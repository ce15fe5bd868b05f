package main

import (
	"errors"
	"fmt"

	"sdmmon/internal/apps"
	"sdmmon/internal/core"
	"sdmmon/internal/fault"
	"sdmmon/internal/network"
	"sdmmon/internal/npu"
	"sdmmon/internal/obs"
	"sdmmon/internal/seccrypto"
	"sdmmon/internal/timing"
)

// runRollout drives the staged live-upgrade scenarios: a clean canaried
// fleet upgrade (with an anti-downgrade replay attempt afterwards), a bad
// canary that trips the health gate and rolls the fleet back, and an upgrade
// over a faulty management link. Deterministic per seed.
func runRollout(scenario string, routers, cores int, seed int64, col *obs.Collector) error {
	scenarios := map[string]func(int, int, int64, *obs.Collector) error{
		"clean":     rolloutClean,
		"badcanary": rolloutBadCanary,
		"lossy":     rolloutLossy,
	}
	if scenario == "all" {
		for _, name := range []string{"clean", "badcanary", "lossy"} {
			if err := scenarios[name](routers, cores, seed, col); err != nil {
				return &scenarioError{Mode: "rollout", Scenario: name, Err: err}
			}
		}
		return nil
	}
	fn, ok := scenarios[scenario]
	if !ok {
		return fmt.Errorf("unknown rollout scenario %q (want clean, badcanary, lossy, or all)", scenario)
	}
	if err := fn(routers, cores, seed, col); err != nil {
		return &scenarioError{Mode: "rollout", Scenario: scenario, Err: err}
	}
	return nil
}

// rolloutFleet manufactures a supervised fleet and installs version 1.0.0 of
// the echo application on every router, returning the operator, devices, and
// the first router's v1 wire package (for the replay demonstration).
func rolloutFleet(routers, cores int, col *obs.Collector) (*core.Operator, []*core.Device, []byte, error) {
	man, err := core.NewManufacturer("acme", nil)
	if err != nil {
		return nil, nil, nil, err
	}
	op, err := core.NewOperator("isp", nil)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := man.Certify(op); err != nil {
		return nil, nil, nil, err
	}
	op.SetAppVersion("udpecho", "1.0.0")
	cfg := core.DefaultDeviceConfig()
	cfg.Cores = cores
	cfg.Supervisor = npu.DefaultSupervisorConfig()
	cfg.Obs = col
	var devices []*core.Device
	var replayWire []byte
	for i := 0; i < routers; i++ {
		dev, err := man.Manufacture(fmt.Sprintf("r%d", i), cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		wire, err := op.ProgramWire(dev.Public(), apps.UDPEcho())
		if err != nil {
			return nil, nil, nil, err
		}
		if _, err := dev.Install(wire); err != nil {
			return nil, nil, nil, err
		}
		if i == 0 {
			replayWire = wire
		}
		devices = append(devices, dev)
	}
	return op, devices, replayWire, nil
}

func printRollout(rep *network.RolloutReport, devices []*core.Device) {
	model := timing.NiosIIPrototype()
	fmt.Printf("  target=%s waves=%d completed=%v rolledback=%v\n",
		rep.Target, rep.Waves, rep.Completed, rep.RolledBack)
	if rep.Reason != "" {
		fmt.Printf("  reason: %s\n", rep.Reason)
	}
	for _, o := range rep.Outcomes {
		live, _ := deviceLive(devices, o.DeviceID)
		attempts := 0
		if o.Delivery != nil {
			attempts = o.Delivery.Attempts
		}
		fmt.Printf("    %-4s wave=%2d phase=%-11s attempts=%d live=%s\n",
			o.DeviceID, o.Wave, o.State, attempts, live)
	}
	status := "CONSERVED"
	if !rep.Conserved {
		status = "VIOLATED"
	}
	fmt.Printf("  traffic: processed=%d forwarded=%d dropped=%d alarms=%d faults=%d — %s\n",
		rep.Processed, rep.Forwarded, rep.Dropped, rep.Alarms, rep.Faults, status)
	fmt.Printf("  cost: %.2fs total (%.2fs wire, %.2fs crypto, %.2fs backoff), data-plane drain %.2fµs (%d cycles)\n",
		rep.Cost.TotalSeconds(model), rep.Cost.WireSeconds, rep.Cost.ProcessSeconds,
		rep.Cost.BackoffSeconds, rep.Cost.DrainSeconds(model)*1e6, rep.Cost.DrainCycles)
}

func deviceLive(devices []*core.Device, id string) (string, bool) {
	for _, d := range devices {
		if d.ID == id {
			return d.LiveApp()
		}
	}
	return "?", false
}

// upgradeTo builds the fleet on udpecho@1.0.0 and upgrades it to app,
// labelled version, over a link with the given faults. It returns the
// fleet, the link, the first router's captured v1 package and the report
// (printed when the rollout returned one).
func upgradeTo(routers, cores int, seed int64, col *obs.Collector, app *apps.App, version string, faults fault.LinkFaults) ([]*core.Device, *network.LossyLink, []byte, *network.RolloutReport, error) {
	op, devices, replayWire, err := rolloutFleet(routers, cores, col)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	op.SetAppVersion("udpecho", version)
	link := network.NewLossyLink(network.GigE(), faults, seed)
	link.Obs = col
	rep, err := network.UpgradeFleet(op, devices, app, network.RolloutConfig{Link: link, Seed: seed}, nil)
	if rep != nil {
		printRollout(rep, devices)
	}
	return devices, link, replayWire, rep, err
}

// rolloutClean upgrades the fleet 1.0.0 → 1.1.0 over a clean link, then
// replays the captured 1.0.0 package to show the anti-downgrade ledger
// rejecting it.
func rolloutClean(routers, cores int, seed int64, col *obs.Collector) error {
	fmt.Printf("rollout clean: %d routers x %d cores, canary + health gate\n", routers, cores)
	devices, _, replayWire, rep, err := upgradeTo(routers, cores, seed, col, apps.UDPEcho(), "1.1.0", fault.LinkFaults{})
	if err != nil {
		return err
	}
	if !rep.Completed || rep.Alarms != 0 || rep.Faults != 0 || !rep.Conserved {
		return fmt.Errorf("clean rollout not clean: %+v", rep)
	}

	// Replay attack: re-deliver the captured, correctly signed 1.0.0 package
	// to r0. The signature verifies; the sequence ledger refuses it.
	_, err = devices[0].Install(replayWire)
	if errors.Is(err, seccrypto.ErrDowngrade) {
		fmt.Printf("  replay of v1.0.0 package: REJECTED (%v)\n", err)
		return nil
	}
	return fmt.Errorf("replayed v1 package was not rejected as a downgrade: %v", err)
}

// rolloutBadCanary upgrades toward a release that faults on every packet.
// The canary's health gate must catch it and roll the fleet back with no
// router left on the bad version.
func rolloutBadCanary(routers, cores int, seed int64, col *obs.Collector) error {
	fmt.Printf("rollout badcanary: %d routers x %d cores, faulty 2.0.0 release\n", routers, cores)
	devices, _, _, rep, err := upgradeTo(routers, cores, seed, col, apps.FaultyEcho(), "2.0.0", fault.LinkFaults{})
	if !errors.Is(err, network.ErrHealthRegression) {
		return fmt.Errorf("bad canary did not trip the health gate: %v", err)
	}
	if !rep.RolledBack || !rep.Conserved {
		return fmt.Errorf("bad canary: expected rollback with conservation: %+v", rep)
	}
	for _, dev := range devices {
		if live, ok := dev.LiveApp(); !ok || live != "udpecho@1.0.0" {
			return fmt.Errorf("%s left on %q after rollback, want udpecho@1.0.0", dev.ID, live)
		}
	}
	fmt.Printf("  every router restored to udpecho@1.0.0\n")
	return nil
}

// rolloutLossy upgrades over a dropping/corrupting management link: staging
// retries per router until the package verifies, and the data plane never
// sees any of it.
func rolloutLossy(routers, cores int, seed int64, col *obs.Collector) error {
	fmt.Printf("rollout lossy: %d routers x %d cores, 30%% drop / 15%% corrupt link\n", routers, cores)
	devices, link, _, rep, err := upgradeTo(routers, cores, seed, col, apps.UDPEcho(), "1.2.0",
		fault.LinkFaults{DropRate: 0.3, CorruptRate: 0.15})
	if err != nil {
		return err
	}
	if !rep.Completed || !rep.Conserved {
		return fmt.Errorf("lossy rollout did not complete cleanly: %+v", rep)
	}
	// Audit the retries against the link's own fault accounting. Every
	// transmission is one attempt, and an attempt fails exactly when the
	// wire dropped or corrupted it: a router skips the certificate check
	// only for the byte-identical pinned certificate, so no corruption
	// goes unnoticed. A seed whose first transmissions all arrive intact
	// passes with zero retries.
	ws := link.WireStats()
	failed := uint64(rep.Cost.Attempts - rep.Cost.Deliveries)
	if uint64(rep.Cost.Attempts) != ws.Sent || failed != ws.Dropped+ws.Corrupted {
		return fmt.Errorf("retries disagree with the link: attempts=%d deliveries=%d, link sent=%d dropped=%d corrupted=%d",
			rep.Cost.Attempts, rep.Cost.Deliveries, ws.Sent, ws.Dropped, ws.Corrupted)
	}
	for _, dev := range devices {
		if live, _ := dev.LiveApp(); live != rep.Target {
			return fmt.Errorf("%s live=%q, want the signed %s", dev.ID, live, rep.Target)
		}
	}
	fmt.Printf("  link: %d sent, %d dropped, %d corrupted; %d failed attempts\n",
		ws.Sent, ws.Dropped, ws.Corrupted, failed)
	return nil
}
