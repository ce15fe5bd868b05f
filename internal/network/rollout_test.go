package network

import (
	"errors"
	"fmt"
	"testing"

	"sdmmon/internal/apps"
	"sdmmon/internal/core"
	"sdmmon/internal/fault"
	"sdmmon/internal/npu"
	"sdmmon/internal/rollout"
)

// upgradeFleet builds a supervised fleet with udpecho@1.0.0 installed and
// serving on every router.
func upgradeFleet(t *testing.T, n int) (*core.Operator, []*core.Device) {
	t.Helper()
	mfr, err := core.NewManufacturer("acme", nil)
	if err != nil {
		t.Fatal(err)
	}
	op, err := core.NewOperator("isp", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mfr.Certify(op); err != nil {
		t.Fatal(err)
	}
	op.SetAppVersion("udpecho", "1.0.0")
	var devices []*core.Device
	for i := 0; i < n; i++ {
		d, err := mfr.Manufacture(fmt.Sprintf("router-%d", i), core.DeviceConfig{
			Cores: 2, MonitorsEnabled: true, Supervisor: npu.DefaultSupervisorConfig(),
		})
		if err != nil {
			t.Fatal(err)
		}
		wire, err := op.ProgramWire(d.Public(), apps.UDPEcho())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Install(wire); err != nil {
			t.Fatal(err)
		}
		devices = append(devices, d)
	}
	return op, devices
}

func allLive(t *testing.T, devices []*core.Device, want string) {
	t.Helper()
	for _, d := range devices {
		if live, ok := d.LiveApp(); !ok || live != want {
			t.Fatalf("%s live=%q, want %q", d.ID, live, want)
		}
	}
}

// The invariant scenario: a clean fleet upgrade under traffic. Zero packets
// attributable to the upgrade are dropped — no alarms, no faults, exact
// conservation — and every router ends on the new version.
func TestUpgradeFleetCleanZeroDowntime(t *testing.T) {
	op, devices := upgradeFleet(t, 4)
	op.SetAppVersion("udpecho", "1.1.0")
	link := NewLossyLink(GigE(), fault.LinkFaults{}, 1)
	rep, err := UpgradeFleet(op, devices, apps.UDPEcho(), RolloutConfig{Link: link, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || rep.RolledBack {
		t.Fatalf("clean rollout: completed=%v rolledback=%v reason=%q", rep.Completed, rep.RolledBack, rep.Reason)
	}
	if rep.Target != "udpecho@1.1.0" {
		t.Fatalf("target=%q", rep.Target)
	}
	allLive(t, devices, "udpecho@1.1.0")
	if rep.Waves < 2 {
		t.Fatalf("waves=%d, want canary wave + at least one more", rep.Waves)
	}
	for _, o := range rep.Outcomes {
		if o.State != rollout.Committed {
			t.Fatalf("%s phase=%v", o.DeviceID, o.State)
		}
	}
	// Zero downtime, quantified: every sampled packet conserved, none lost
	// to alarms or faults, and the data-plane drain is just the per-core
	// cutovers.
	if !rep.Conserved {
		t.Fatal("packet accounting not conserved across the upgrade")
	}
	if rep.Alarms != 0 || rep.Faults != 0 {
		t.Fatalf("upgrade caused %d alarms / %d faults", rep.Alarms, rep.Faults)
	}
	if rep.Processed == 0 || rep.Processed != rep.Forwarded+rep.Dropped {
		t.Fatalf("traffic totals inconsistent: %+v", rep)
	}
	wantDrain := uint64(4 * 2 * 64) // routers x cores x commit cost
	if rep.Cost.DrainCycles != wantDrain {
		t.Fatalf("DrainCycles=%d, want %d", rep.Cost.DrainCycles, wantDrain)
	}
	if rep.Cost.Deliveries != 4 || rep.Cost.Attempts != 4 {
		t.Fatalf("cost deliveries=%d attempts=%d, want 4/4 on a clean link", rep.Cost.Deliveries, rep.Cost.Attempts)
	}
}

// The invariant scenario: a bad canary trips the health gate and the whole
// fleet rolls back — every router back on the old version, later waves never
// attempted.
func TestUpgradeFleetBadCanaryAutoRollback(t *testing.T) {
	op, devices := upgradeFleet(t, 4)
	op.SetAppVersion("udpecho", "2.0.0")
	link := NewLossyLink(GigE(), fault.LinkFaults{}, 2)
	rep, err := UpgradeFleet(op, devices, apps.FaultyEcho(), RolloutConfig{Link: link, Seed: 2}, nil)
	if !errors.Is(err, ErrHealthRegression) {
		t.Fatalf("bad canary: err=%v, want ErrHealthRegression", err)
	}
	if !rep.RolledBack || rep.Completed {
		t.Fatalf("rolledback=%v completed=%v", rep.RolledBack, rep.Completed)
	}
	allLive(t, devices, "udpecho@1.0.0")
	if rep.Outcomes[0].State != rollout.RolledBack {
		t.Fatalf("canary phase=%v, want rolled-back", rep.Outcomes[0].State)
	}
	for _, o := range rep.Outcomes[1:] {
		if o.State != rollout.Pending || o.Wave != -1 {
			t.Fatalf("%s was touched: phase=%v wave=%d", o.DeviceID, o.State, o.Wave)
		}
	}
	if !rep.Conserved {
		t.Fatal("accounting not conserved through rollback")
	}
	// The canary's regression is visible in the sample that tripped the gate.
	if o := rep.Outcomes[0]; o.After.Rate() <= o.Baseline.Rate() {
		t.Fatalf("canary sample shows no regression: after=%v baseline=%v", o.After, o.Baseline)
	}
	// The routers still serve traffic on the restored version.
	for _, d := range devices {
		if _, err := d.Process([]byte{0x45, 0, 0, 20, 0, 0, 0, 0, 64, 6, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}, 0); err != nil {
			t.Fatalf("%s dead after rollback: %v", d.ID, err)
		}
	}
}

// A lossy management link delays staging (retries) but cannot affect the
// data plane: the rollout completes with more attempts than deliveries and
// zero upgrade-attributable drops.
func TestUpgradeFleetOverLossyLink(t *testing.T) {
	op, devices := upgradeFleet(t, 4)
	op.SetAppVersion("udpecho", "1.2.0")
	link := NewLossyLink(GigE(), fault.LinkFaults{DropRate: 0.3, CorruptRate: 0.15}, 17)
	pol := DefaultRetryPolicy()
	pol.MaxAttempts = 32
	pol.DeadlineSeconds = 0
	rep, err := UpgradeFleet(op, devices, apps.UDPEcho(), RolloutConfig{Link: link, Seed: 3, Policy: pol}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatalf("lossy rollout incomplete: %q", rep.Reason)
	}
	allLive(t, devices, "udpecho@1.2.0")
	if rep.Cost.Attempts <= rep.Cost.Deliveries {
		t.Fatalf("attempts=%d deliveries=%d — loss not exercised", rep.Cost.Attempts, rep.Cost.Deliveries)
	}
	if rep.Alarms != 0 || rep.Faults != 0 || !rep.Conserved {
		t.Fatalf("management loss leaked into the data plane: %+v", rep)
	}
}

// A dead canary aborts the rollout before anything commits anywhere.
func TestUpgradeFleetDeadCanaryAbortsBeforeCommit(t *testing.T) {
	op, devices := upgradeFleet(t, 3)
	op.SetAppVersion("udpecho", "1.3.0")
	link := NewLossyLink(GigE(), fault.LinkFaults{}, 4)
	link.Dead = map[string]bool{"router-0": true}
	pol := DefaultRetryPolicy()
	pol.MaxAttempts = 2
	rep, err := UpgradeFleet(op, devices, apps.UDPEcho(), RolloutConfig{Link: link, Seed: 4, Policy: pol}, nil)
	if !errors.Is(err, ErrCanaryDelivery) {
		t.Fatalf("dead canary: err=%v, want ErrCanaryDelivery", err)
	}
	if rep.Completed || rep.RolledBack {
		t.Fatalf("completed=%v rolledback=%v", rep.Completed, rep.RolledBack)
	}
	allLive(t, devices, "udpecho@1.0.0")
	if rep.Outcomes[0].State != rollout.Failed {
		t.Fatalf("canary phase=%v", rep.Outcomes[0].State)
	}
	for _, d := range devices {
		if _, err := d.CommitUpgrade(); !errors.Is(err, npu.ErrNothingStaged) {
			t.Fatalf("%s has something staged/committed after aborted canary: %v", d.ID, err)
		}
	}
}

// Partial failure is resumable: a dead non-canary router fails its wave
// while the rest commit; a second UpgradeFleet with the prior report
// retries only the failed router.
func TestUpgradeFleetResumesAfterFailedRouter(t *testing.T) {
	op, devices := upgradeFleet(t, 4)
	op.SetAppVersion("udpecho", "1.4.0")
	link := NewLossyLink(GigE(), fault.LinkFaults{}, 5)
	link.Dead = map[string]bool{"router-2": true}
	pol := DefaultRetryPolicy()
	pol.MaxAttempts = 2
	rep, err := UpgradeFleet(op, devices, apps.UDPEcho(), RolloutConfig{Link: link, Seed: 5, Policy: pol}, nil)
	if err != nil {
		t.Fatalf("non-canary delivery failure must not abort: %v", err)
	}
	if rep.Completed {
		t.Fatal("rollout with a dead router reported complete")
	}
	failed := rep.Outcome("router-2")
	if failed == nil || failed.State != rollout.Failed {
		t.Fatalf("router-2 outcome: %+v", failed)
	}
	committed := 0
	for _, o := range rep.Outcomes {
		if o.State == rollout.Committed {
			committed++
		}
	}
	if committed != 3 {
		t.Fatalf("committed=%d, want 3", committed)
	}

	// Heal the link and resume: only router-2 is attempted.
	link.Dead = nil
	rep2, err := UpgradeFleet(op, devices, apps.UDPEcho(), RolloutConfig{Link: link, Seed: 6, Policy: pol}, rep)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Completed {
		t.Fatalf("resume incomplete: %q", rep2.Reason)
	}
	for _, o := range rep2.Outcomes {
		if o.State != rollout.Committed {
			t.Fatalf("%s phase=%v after resume", o.DeviceID, o.State)
		}
	}
	// Already-committed routers were skipped, not re-delivered.
	if rep2.Cost.Deliveries != rep.Cost.Deliveries+1 {
		t.Fatalf("resume deliveries=%d, want prior+1=%d", rep2.Cost.Deliveries, rep.Cost.Deliveries+1)
	}
	// The resumed router runs a later release of the same line (the
	// operator counter moved on); everyone is on some 1.4.x of udpecho.
	if live, _ := devices[2].LiveApp(); live != rep2.Outcome("router-2").Delivery.Install.App {
		t.Fatalf("router-2 live=%q", live)
	}
}

// A regression in a later wave rolls back every committed router, the
// earlier waves' included. Routers 0–2 already run the faulting release,
// so shipping it again leaves their event rate where it was; router 3 runs
// the clean echo, so in the last wave (canary, {1,2}, {3}) the same release
// regresses against its own baseline. No supervisor: the faulting baseline
// must not quarantine the cores before the rollout starts.
func TestUpgradeFleetLaterWaveRegressionRollsBackAll(t *testing.T) {
	mfr, err := core.NewManufacturer("acme", nil)
	if err != nil {
		t.Fatal(err)
	}
	op, err := core.NewOperator("isp", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mfr.Certify(op); err != nil {
		t.Fatal(err)
	}
	op.SetAppVersion("udpecho", "1.0.0")
	var devices []*core.Device
	for i := 0; i < 4; i++ {
		d, err := mfr.Manufacture(fmt.Sprintf("router-%d", i), core.DeviceConfig{Cores: 2, MonitorsEnabled: true})
		if err != nil {
			t.Fatal(err)
		}
		app := apps.FaultyEcho()
		if i == 3 {
			app = apps.UDPEcho()
		}
		wire, err := op.ProgramWire(d.Public(), app)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Install(wire); err != nil {
			t.Fatal(err)
		}
		devices = append(devices, d)
	}
	op.SetAppVersion("udpecho", "2.0.0")
	link := NewLossyLink(GigE(), fault.LinkFaults{}, 9)
	rep, err := UpgradeFleet(op, devices, apps.FaultyEcho(), RolloutConfig{Link: link, Seed: 9}, nil)
	if !errors.Is(err, ErrHealthRegression) {
		t.Fatalf("err=%v, want ErrHealthRegression in the last wave", err)
	}
	if rep.Waves != 3 || !rep.RolledBack || rep.Completed {
		t.Fatalf("waves=%d rolledback=%v completed=%v, want 3/true/false", rep.Waves, rep.RolledBack, rep.Completed)
	}
	for i, o := range rep.Outcomes {
		if o.Wave != []int{0, 1, 1, 2}[i] {
			t.Fatalf("%s upgraded in wave %d", o.DeviceID, o.Wave)
		}
		if o.State != rollout.RolledBack {
			t.Fatalf("%s phase=%v, want rolled-back", o.DeviceID, o.State)
		}
	}
	if o := rep.Outcomes[3]; o.Err == nil || o.After.Rate() <= o.Baseline.Rate() {
		t.Fatalf("router-3 shows no regression: %+v", o)
	}
	allLive(t, devices, "udpecho@1.0.0")
	if !rep.Conserved {
		t.Fatal("accounting not conserved through rollback")
	}
	if rep.Cost.DrainCycles != 2*4*2*64 { // commit + rollback x routers x cores
		t.Fatalf("DrainCycles=%d, want %d", rep.Cost.DrainCycles, 2*4*2*64)
	}
}
