// Package tenant is the trusted domain manager (DESIGN.md §17): the one
// layer that lets a single monitored plane host many applications from
// many tenants with hardware-grade isolation. The paper's architecture
// protects one application with one monitor; a deployed network processor
// is shared — several customers' packet programs run side by side on one
// sea of cores, and the security system has to keep them apart at every
// layer, not just in the monitoring graphs.
//
// The manager composes the isolation primitives the lower layers export
// into per-tenant protection domains:
//
//   - cores: each tenant owns an exclusive slice of every NP's core slots
//     (npu.SetDomains), and every install, stage, commit, rollback,
//     quarantine and stats read the manager performs goes through the
//     tenant's npu domain view on that NP, resolved once at New — a call
//     that names another tenant's core is refused with
//     npu.ErrDomainViolation before any state moves;
//
//   - monitoring: each tenant's bundles carry its own monitoring graphs,
//     extracted under its own hash parameter, so one tenant learning
//     another's graph structure or hash schedule gains nothing;
//
//   - versions: each tenant has its own seccrypto.SequenceLedger, so
//     anti-downgrade high-water marks are per tenant — tenant A shipping
//     sequence 40 does not let (or force) tenant B to skip to 41, and a
//     replayed old bundle is refused per tenant;
//
//   - traffic: the shard plane schedules by flow class (shard.Tenancy):
//     each tenant's flows ride its own ingress lanes and drain onto its
//     own cores, with per-tenant admission, lockdown, failover and exact
//     per-tenant packet conservation;
//
//   - telemetry: every tenant-scoped series carries a tenant label, and
//     the leakage drill in this package's tests byte-compares a bystander
//     tenant's entire label slice across another tenant's traffic, attack
//     and response activity.
//
// Rollouts are tenant-scoped too (rollout.go): a tenant's new version
// canaries on its own slots of NP 0, health-gates against its own domain
// statistics, and rolls back its own domain fleet-wide on regression —
// structurally unable to touch anyone else's slots because every step
// addresses cores through the tenant's domain views.
package tenant

import (
	"errors"
	"fmt"

	"sdmmon/internal/apps"
	"sdmmon/internal/mhash"
	"sdmmon/internal/monitor"
	"sdmmon/internal/npu"
	"sdmmon/internal/obs"
	"sdmmon/internal/seccrypto"
	"sdmmon/internal/shard"
)

// Manager-level errors.
var (
	// ErrUnknownTenant: the named tenant is not part of this plane.
	ErrUnknownTenant = errors.New("tenant: unknown tenant")
)

// Spec declares one tenant: its name (which becomes its protection-domain
// name on every NP and its label in the metric namespace) and the core
// slots it owns on every NP. Core ownership is exclusive; New refuses
// overlapping specs (via npu.SetDomains).
type Spec struct {
	Name  string
	Cores []int
}

// AppBundle is one tenant application release. The manager assembles the
// binary and extracts the monitoring graph itself, under the tenant's own
// hash parameter — tenants hand over programs, never pre-built graphs, so
// a tenant cannot ship a graph that vouches for someone else's binary.
type AppBundle struct {
	App *apps.App
	// Param seeds the tenant's monitoring hash for this release. Rotate it
	// per release; it never needs to relate to any other tenant's.
	Param uint32
	// Version is a human label carried into reports ("1.2.0").
	Version string
	// Sequence is the anti-downgrade sequence number checked against the
	// tenant's own ledger. 0 bypasses the ledger (legacy/unversioned).
	Sequence uint64
}

// target renders the report label for a bundle.
func (b AppBundle) target() string {
	v := b.Version
	if v == "" {
		v = "unversioned"
	}
	return fmt.Sprintf("%s@%s#%d", b.App.Name, v, b.Sequence)
}

// Config assembles a multi-tenant plane.
type Config struct {
	// NPs are the line cards. The manager installs the domain partition on
	// every one of them; they must not already be partitioned.
	NPs []*npu.NP
	// Specs declare the tenants, in tenant-index order.
	Specs []Spec
	// Classify maps a packet to its tenant index (the flow class); see
	// shard.TenancyConfig.Classify. Required when len(Specs) > 1.
	Classify func(pkt []byte) int
	// QueueCapacity / MarkThreshold / BatchSize shape each tenant's
	// per-shard ingress lane; see shard.Config.
	QueueCapacity int
	MarkThreshold int
	BatchSize     int
	// Obs receives the plane's tenant-labeled series and the manager's
	// tenant_* lifecycle counters. Nil disables telemetry.
	Obs *obs.Collector
}

// tenantState is the manager's per-tenant record.
type tenantState struct {
	name   string
	ledger *seccrypto.SequenceLedger
	// views[i] is the tenant's protection domain on NP i.
	views []*npu.Domain

	mInstalls  *obs.Counter
	mRollouts  *obs.Counter
	mRollbacks *obs.Counter
	mRefused   *obs.Counter
}

// Manager is the trusted domain manager: the only component that holds
// both the core partition and the dispatch plane, and the only path
// through which tenant software reaches cores.
type Manager struct {
	nps     []*npu.NP
	plane   *shard.Plane
	tenants []*tenantState
	byName  map[string]int
	obs     *obs.Collector
}

// New partitions every NP, builds the tenant-aware shard plane, and
// returns the manager. Install each tenant's application (Install or
// Rollout) before submitting its traffic: a lane draining onto a domain
// with nothing installed fails over, exactly like a wedged card.
func New(cfg Config) (*Manager, error) {
	if len(cfg.NPs) == 0 {
		return nil, fmt.Errorf("tenant: manager needs at least one NP")
	}
	if len(cfg.Specs) == 0 {
		return nil, fmt.Errorf("tenant: manager needs at least one tenant spec")
	}
	if cfg.QueueCapacity < 1 {
		return nil, fmt.Errorf("tenant: queue capacity %d must be >= 1", cfg.QueueCapacity)
	}
	specs := make([]npu.DomainSpec, len(cfg.Specs))
	names := make([]string, len(cfg.Specs))
	for i, sp := range cfg.Specs {
		specs[i] = npu.DomainSpec{Name: sp.Name, Cores: sp.Cores}
		names[i] = sp.Name
	}
	views := make([][]*npu.Domain, len(names)) // [tenant][NP]
	for t := range views {
		views[t] = make([]*npu.Domain, len(cfg.NPs))
	}
	for i, np := range cfg.NPs {
		if err := np.SetDomains(specs); err != nil {
			return nil, fmt.Errorf("tenant: NP %d: %w", i, err)
		}
		for t, name := range names {
			views[t][i], _ = np.Domain(name) // SetDomains just installed it
		}
	}
	var tenancy *shard.TenancyConfig
	if len(names) > 1 || cfg.Classify != nil {
		tenancy = &shard.TenancyConfig{Tenants: names, Classify: cfg.Classify}
	} else {
		tenancy = &shard.TenancyConfig{Tenants: names}
	}
	plane, err := shard.NewPlane(shard.Config{
		NPs:           cfg.NPs,
		QueueCapacity: cfg.QueueCapacity,
		MarkThreshold: cfg.MarkThreshold,
		BatchSize:     cfg.BatchSize,
		Obs:           cfg.Obs,
		Tenancy:       tenancy,
	})
	if err != nil {
		return nil, err
	}
	m := &Manager{
		nps:    cfg.NPs,
		plane:  plane,
		byName: make(map[string]int, len(names)),
		obs:    cfg.Obs,
	}
	reg := cfg.Obs.Registry()
	for i, name := range names {
		m.byName[name] = i
		m.tenants = append(m.tenants, &tenantState{
			name:       name,
			ledger:     seccrypto.NewSequenceLedger(),
			views:      views[i],
			mInstalls:  reg.Counter(obs.Labeled("tenant_installs_total", "tenant", name)),
			mRollouts:  reg.Counter(obs.Labeled("tenant_rollouts_completed_total", "tenant", name)),
			mRollbacks: reg.Counter(obs.Labeled("tenant_rollbacks_total", "tenant", name)),
			mRefused:   reg.Counter(obs.Labeled("tenant_refused_total", "tenant", name)),
		})
	}
	return m, nil
}

// Plane exposes the dispatch plane (Submit/SubmitBatch/Stats and the
// per-tenant admission and lockdown levers).
func (m *Manager) Plane() *shard.Plane { return m.plane }

// Tenants lists tenant names in index order.
func (m *Manager) Tenants() []string {
	out := make([]string, len(m.tenants))
	for i, ts := range m.tenants {
		out[i] = ts.name
	}
	return out
}

// Index resolves a tenant name.
func (m *Manager) Index(name string) (int, error) {
	i, ok := m.byName[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	return i, nil
}

// state resolves a tenant record.
func (m *Manager) state(name string) (*tenantState, error) {
	i, err := m.Index(name)
	if err != nil {
		return nil, err
	}
	return m.tenants[i], nil
}

// build assembles a bundle's binary and monitoring graph under the
// tenant's hash parameter.
func build(b AppBundle) (binary, graph []byte, err error) {
	if b.App == nil {
		return nil, nil, fmt.Errorf("tenant: bundle has no application")
	}
	prog, err := b.App.Program()
	if err != nil {
		return nil, nil, err
	}
	g, err := monitor.Extract(prog, mhash.NewMerkle(b.Param))
	if err != nil {
		return nil, nil, err
	}
	return prog.Serialize(), g.Serialize(), nil
}

// Install puts a bundle live on every core the tenant owns, on every NP,
// gated by the tenant's anti-downgrade ledger. This is the direct
// (non-canaried) path — first boot, or an emergency push; use Rollout for
// health-gated upgrades.
func (m *Manager) Install(tenant string, b AppBundle) error {
	ts, err := m.state(tenant)
	if err != nil {
		return err
	}
	if b.Sequence > 0 {
		if err := ts.ledger.Accept(b.App.Name, b.Sequence); err != nil {
			ts.mRefused.Inc()
			return err
		}
	}
	binary, graph, err := build(b)
	if err != nil {
		return err
	}
	for i, v := range ts.views {
		if err := v.InstallAll(b.App.Name, binary, graph, b.Param); err != nil {
			return fmt.Errorf("tenant: install on NP %d: %w", i, err)
		}
	}
	ts.mInstalls.Inc()
	return nil
}

// HighWater reports the tenant's accepted sequence high-water mark for an
// application.
func (m *Manager) HighWater(tenant, app string) (uint64, error) {
	ts, err := m.state(tenant)
	if err != nil {
		return 0, err
	}
	return ts.ledger.HighWater(app), nil
}

// MarshalLedger serializes one tenant's ledger for persistence; restore
// with RestoreLedger after rebuilding the plane.
func (m *Manager) MarshalLedger(tenant string) ([]byte, error) {
	ts, err := m.state(tenant)
	if err != nil {
		return nil, err
	}
	return ts.ledger.Marshal(), nil
}

// RestoreLedger replaces one tenant's ledger with a persisted image.
func (m *Manager) RestoreLedger(tenant string, data []byte) error {
	ts, err := m.state(tenant)
	if err != nil {
		return err
	}
	l, err := seccrypto.UnmarshalSequenceLedger(data)
	if err != nil {
		return err
	}
	ts.ledger = l
	return nil
}

// Snapshot is one tenant's cross-layer view: its plane accounting and its
// per-NP domain statistics. Nothing in it reads another tenant's state.
type Snapshot struct {
	Tenant string
	Plane  shard.TenantStats
	// Domains[i] is the tenant's stat account on NP i.
	Domains []npu.Stats
}

// Snapshot collects one tenant's view.
func (m *Manager) Snapshot(tenant string) (Snapshot, error) {
	idx, err := m.Index(tenant)
	if err != nil {
		return Snapshot{}, err
	}
	ps, err := m.plane.TenantStatsFor(idx)
	if err != nil {
		return Snapshot{}, err
	}
	snap := Snapshot{Tenant: tenant, Plane: ps}
	for _, v := range m.tenants[idx].views {
		if err := v.Err(); err != nil {
			return Snapshot{}, err
		}
		snap.Domains = append(snap.Domains, v.Stats())
	}
	return snap, nil
}

// Quarantine isolates one core of the tenant's domain on one NP — the
// tenant-scoped isolate_core response action. A core outside the tenant's
// domain is refused with npu.ErrDomainViolation.
func (m *Manager) Quarantine(tenant string, np, core int) error {
	ts, err := m.state(tenant)
	if err != nil {
		return err
	}
	if np < 0 || np >= len(ts.views) {
		return fmt.Errorf("tenant: no NP %d", np)
	}
	return ts.views[np].Quarantine(core)
}

// Lockdown closes one tenant's admission plane-wide (and only that
// tenant's); Unlock re-opens it.
func (m *Manager) Lockdown(tenant string) error {
	idx, err := m.Index(tenant)
	if err != nil {
		return err
	}
	return m.plane.LockdownTenant(idx)
}

// Unlock re-opens one tenant's admission.
func (m *Manager) Unlock(tenant string) error {
	idx, err := m.Index(tenant)
	if err != nil {
		return err
	}
	return m.plane.ClearLockdownTenant(idx)
}

// Close stops the plane (drains backlogs first).
func (m *Manager) Close() { m.plane.Close() }
