package tenant

// Tenant-scoped canary rollouts: the internal/rollout wave engine (canary
// first, health gate against the unit's own baseline, automatic rollback on
// regression) applied to one tenant's protection domain across the plane's
// NPs. Every step addresses cores through the tenant's domain view on each
// NP — StageInstallAll, CommitAll, RollbackAll — so the rollout is
// structurally unable to touch another tenant's slots: a view reaches only
// its domain's cores, and the isolation test byte-compares a bystander's
// telemetry across a hostile rollout to prove it.

import (
	"errors"
	"fmt"

	"sdmmon/internal/npu"
	"sdmmon/internal/packet"
	"sdmmon/internal/rollout"
	"sdmmon/internal/seccrypto"
)

// ErrHealthRegression: the canary (or a later wave) regressed against its
// own pre-upgrade baseline; the tenant's domain was rolled back everywhere
// it had committed.
var ErrHealthRegression = errors.New("tenant: health regression; domain rolled back")

// errCommit marks a commit that failed after its stage was accepted; the
// rollout rolls the tenant back everywhere it committed.
var errCommit = errors.New("tenant: commit")

// NPOutcome records one NP's part in a tenant rollout.
type NPOutcome struct {
	NP int
	rollout.Unit
}

// Report is the outcome of one tenant rollout.
type Report struct {
	Tenant string
	Target string
	// Waves counts health-gated commit waves (wave 0 is the canary: the
	// tenant's slots on NP 0).
	Waves      int
	Completed  bool
	RolledBack bool
	Reason     string
	Outcomes   []NPOutcome
}

// sampleDomain runs n deterministic packets through one NP's tenant domain
// and measures the domain's own outcome. The batch-local delta (DrainBatch
// reports exactly this batch's counters) plus the domain quarantine delta
// make the sample immune to concurrent traffic on other tenants' cores.
func sampleDomain(view *npu.Domain, gen *packet.Generator, n int) (rollout.Sample, error) {
	pkts := make([][]byte, n)
	for i := range pkts {
		pkts[i] = gen.Next()
	}
	before := view.Stats()
	out, derr := view.DrainBatch(pkts, 0)
	after := view.Stats()
	h := rollout.Sample{
		Processed:   out.Processed,
		Alarms:      out.Alarms,
		Faults:      out.Faults,
		Quarantines: after.Quarantines - before.Quarantines,
	}
	return h, derr
}

// Rollout performs a canaried, health-gated upgrade of one tenant's domain
// across every NP through the rollout engine, one NP per wave. The canary
// is the tenant's own slots on NP 0: stage, commit at a packet boundary,
// then compare the domain's post-commit event rate against its own
// pre-upgrade baseline (gate.HealthPackets per sample, default 128). A
// regression rolls the tenant's domain back on every NP it committed,
// newest first, discards anything staged and returns ErrHealthRegression;
// a failed commit does the same and returns the commit's error. A refused
// stage or a failed baseline stops the rollout where it is. No other tenant's slots are touched at any point, in
// success or failure. On success the tenant's anti-downgrade ledger
// advances to the bundle's sequence.
func (m *Manager) Rollout(tenant string, b AppBundle, gate rollout.Gate, seed int64) (*Report, error) {
	ts, err := m.state(tenant)
	if err != nil {
		return nil, err
	}
	if gate.HealthPackets <= 0 {
		gate.HealthPackets = 128
	}
	rep := &Report{
		Tenant:   tenant,
		Target:   b.target(),
		Outcomes: make([]NPOutcome, len(m.nps)),
	}
	finish := func(reason string, err error) (*Report, error) {
		rep.Reason = reason
		rep.Completed = err == nil && !rep.RolledBack
		if rep.Completed {
			ts.mRollouts.Inc()
		}
		return rep, err
	}

	// Anti-downgrade gate before anything is staged: the high-water mark
	// only advances after the rollout completes, so a rolled-back sequence
	// can be retried.
	if b.Sequence > 0 {
		if hw := ts.ledger.HighWater(b.App.Name); b.Sequence <= hw {
			ts.mRefused.Inc()
			return finish(fmt.Sprintf("sequence %d at or below high-water %d", b.Sequence, hw),
				fmt.Errorf("%w: %s sequence %d, tenant high-water %d",
					seccrypto.ErrDowngrade, b.App.Name, b.Sequence, hw))
		}
	}
	binary, graph, err := build(b)
	if err != nil {
		return finish("bundle build failed", err)
	}

	// Every action addresses cores through the tenant's domain views.
	t := rollout.Target{
		Probe: func(i, _ int, post bool) (rollout.Sample, error) {
			gs := seed ^ int64(i)<<8
			if post {
				gs ^= 0x5a5a
			}
			s, err := sampleDomain(ts.views[i], packet.NewGenerator(gs), gate.HealthPackets)
			if err != nil && !post {
				err = fmt.Errorf("tenant: baseline on NP %d: %w", i, err)
			}
			return s, err
		},
		Stage: func(i, _ int) error {
			if err := ts.views[i].StageInstallAll(b.App.Name, binary, graph, b.Param); err != nil {
				return fmt.Errorf("tenant: stage on NP %d: %w", i, err)
			}
			return nil
		},
		Commit: func(i, _ int) error {
			if _, err := ts.views[i].CommitAll(); err != nil {
				return fmt.Errorf("%w on NP %d: %w", errCommit, i, err)
			}
			return nil
		},
		Rollback: func(i int) error {
			if _, err := ts.views[i].RollbackAll(); err != nil {
				return fmt.Errorf("rollback on NP %d: %w", i, err)
			}
			return nil
		},
		Abort: func(i int) { ts.views[i].AbortAllStaged() },
	}
	units := make([]rollout.Unit, len(m.nps))
	waves := make([][]int, len(m.nps))
	newestFirst := make([]int, len(m.nps))
	for i := range units {
		units[i].Wave = -1
		waves[i] = []int{i}
		newestFirst[i] = len(m.nps) - 1 - i
	}
	var reason string
	judge := func(_ int, ran []int) error {
		i := ran[0]
		u := &units[i]
		switch {
		case u.State == rollout.Failed && !errors.Is(u.Err, errCommit):
			reason = fmt.Sprintf("stage on NP %d refused", i)
			return u.Err
		case u.State == rollout.Failed:
			reason = fmt.Sprintf("commit on NP %d failed", i)
		case gate.Regressed(*u):
			reason = fmt.Sprintf("health regression on NP %d; tenant domain rolled back", i)
			u.Err = fmt.Errorf("%w: %s on NP %d rate %.4f vs baseline %.4f (+%d quarantines)",
				ErrHealthRegression, tenant, i, u.After.Rate(), u.Baseline.Rate(), u.After.Quarantines)
		default:
			return nil
		}
		for j := range m.nps {
			t.Abort(j)
		}
		rollout.RollBack(t, units, newestFirst)
		ts.mRollbacks.Inc()
		rep.RolledBack = true
		return u.Err
	}
	rep.Waves, err = rollout.Run(t, units, waves, judge)
	for i := range units {
		rep.Outcomes[i] = NPOutcome{NP: i, Unit: units[i]}
	}
	if err != nil {
		if reason == "" {
			reason = fmt.Sprintf("baseline on NP %d failed", rep.Waves-1)
		}
		return finish(reason, err)
	}

	if b.Sequence > 0 {
		if err := ts.ledger.Accept(b.App.Name, b.Sequence); err != nil {
			// Unreachable given the entry check, but never let the ledger
			// silently diverge from what is running.
			return finish("ledger refused completed rollout", err)
		}
	}
	return finish("", nil)
}
