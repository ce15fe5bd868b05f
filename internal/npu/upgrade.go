package npu

import (
	"errors"
	"fmt"

	"sdmmon/internal/obs"
)

// Live upgrades (DESIGN.md §10): the paper's secure dynamic installation
// (§3) pushes new bundles to routers that are already serving traffic, but a
// destructive Install replaces the live slot in place — one bad byte and the
// core is down until a good bundle arrives. The two-phase path separates the
// expensive, fallible work from the cutover: StageInstall deserializes,
// packs, and self-checks the new bundle into a shadow slot while the old
// bundle keeps forwarding packets; Commit swaps the shadow in at a packet
// boundary (the per-core lock drains the in-flight packet, so no packet ever
// sees mixed binary/monitor/hasher state) and retains the displaced version;
// Rollback swaps the retained version back just as atomically. Abort throws
// a staged bundle away without touching the live slot.

// Upgrade lifecycle errors.
var (
	// ErrNothingStaged: Commit was called with no staged bundle on the core.
	ErrNothingStaged = errors.New("npu: nothing staged")
	// ErrNothingRetained: Rollback was called but the core has no retained
	// previous version (never committed, or freshly installed).
	ErrNothingRetained = errors.New("npu: no retained version to roll back to")
)

// commitCycles is the simulated cost of one core's atomic cutover: the
// staged image is already resident (program memory, monitor bank, hash
// parameter all loaded at staging time), so the commit is a bank select plus
// the fixed core reset sequence — the same constant the resident-application
// Switch path charges.
const commitCycles = 64

// StageInstall prepares a bundle into the shadow slot of a core the view
// owns: deserialize the binary and graph, compile the packed monitor,
// build the hash unit, and run the graph/binary self-check — all without
// touching the live slot, which keeps serving packets. A later
// StageInstall replaces the staged bundle; a quarantined core may stage
// (that is how it gets healed) but stays out of dispatch until the commit
// re-introduces it on probation.
func (d *Domain) StageInstall(coreID int, name string, binary, graph []byte, param uint32) error {
	slot, err := d.slot(coreID)
	if err != nil {
		return err
	}
	p, err := d.np.prepare(name, binary, graph, param)
	if err != nil {
		return err
	}
	d.np.stage(slot, p)
	return nil
}

// stage writes a prepared image into a slot's shadow slot.
func (np *NP) stage(slot *coreSlot, p *preparedApp) {
	slot.mu.Lock()
	slot.staged = p
	slot.mu.Unlock()
	slot.ring.Emit(obs.EvStage, 0, 0)
	np.mStages.Inc()
}

// StageInstallAll stages the same bundle on every core the view owns.
// Preparation happens for every core before any shadow slot is written, so
// a failure leaves all cores exactly as they were.
func (d *Domain) StageInstallAll(name string, binary, graph []byte, param uint32) error {
	prepared, err := d.prepareAll(name, binary, graph, param)
	if err != nil {
		return err
	}
	for i, coreID := range d.cores {
		d.np.stage(d.np.slots[coreID], prepared[i])
	}
	return nil
}

// Commit cuts a core the view owns over to its staged bundle at a packet
// boundary: the per-core lock waits for the in-flight packet (if any) to
// retire, the staged image becomes live, and the displaced image is
// retained for Rollback. A quarantined core re-enters dispatch on
// probation, exactly like a destructive re-install. Returns the simulated
// cutover cost in core cycles. Safe to call while ProcessBatch is running.
func (d *Domain) Commit(coreID int) (uint64, error) {
	slot, err := d.slot(coreID)
	if err != nil {
		return 0, err
	}
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.staged == nil {
		return 0, fmt.Errorf("npu: core %d: %w", coreID, ErrNothingStaged)
	}
	if slot.loaded {
		slot.prev = slot.liveImage()
	}
	slot.setLive(slot.staged)
	slot.staged = nil
	slot.sup.onInstall()
	slot.ring.Emit(obs.EvCommit, 0, commitCycles)
	d.np.mCommits.Inc()
	return commitCycles, nil
}

// CommitAll commits every core the view owns, all-or-nothing: if any of
// them has nothing staged, none is cut over (bundles staged outside the
// view are invisible to the check and untouched by the commit). Cores
// commit one at a time, each at its own packet boundary — the data plane
// never pauses, and a packet in flight on core 1 while core 0 commits
// still sees a consistent (old or new, never mixed) image on whichever
// core runs it.
func (d *Domain) CommitAll() (uint64, error) {
	if err := d.Err(); err != nil {
		return 0, err
	}
	for _, coreID := range d.cores {
		if !d.np.HasStaged(coreID) {
			return 0, fmt.Errorf("npu: core %d: %w", coreID, ErrNothingStaged)
		}
	}
	var cycles uint64
	for _, coreID := range d.cores {
		c, err := d.Commit(coreID)
		if err != nil {
			return cycles, err
		}
		cycles += c
	}
	return cycles, nil
}

// AbortStaged discards the staged bundle of a core the view owns (no-op if
// nothing is staged). The live slot is untouched.
func (d *Domain) AbortStaged(coreID int) error {
	slot, err := d.slot(coreID)
	if err != nil {
		return err
	}
	slot.mu.Lock()
	hadStaged := slot.staged != nil
	slot.staged = nil
	slot.mu.Unlock()
	if hadStaged {
		slot.ring.Emit(obs.EvAbort, 0, 0)
		d.np.mAborts.Inc()
	}
	return nil
}

// AbortAllStaged discards the staged bundle of every core the view owns
// (nothing, on a stale view).
func (d *Domain) AbortAllStaged() {
	for _, coreID := range d.cores {
		_ = d.AbortStaged(coreID)
	}
}

// Rollback restores the retained previous version of a core the view owns
// at a packet boundary, swapping it with the current live image (so a
// roll-forward is possible by rolling back again). The retained image keeps
// its scratch memory — the hardware model is a bank switch, not a reload.
// The core returns to dispatch on probation if it was quarantined. Returns
// the simulated cutover cost in cycles.
func (d *Domain) Rollback(coreID int) (uint64, error) {
	slot, err := d.slot(coreID)
	if err != nil {
		return 0, err
	}
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.prev == nil {
		return 0, fmt.Errorf("npu: core %d: %w", coreID, ErrNothingRetained)
	}
	displaced := slot.liveImage()
	slot.setLive(slot.prev)
	slot.prev = displaced
	slot.sup.onInstall()
	slot.ring.Emit(obs.EvRollback, 0, commitCycles)
	d.np.mRollbacks.Inc()
	return commitCycles, nil
}

// RollbackAll rolls back every core the view owns, all-or-nothing: if any
// of them has no retained version, none is touched.
func (d *Domain) RollbackAll() (uint64, error) {
	if err := d.Err(); err != nil {
		return 0, err
	}
	for _, coreID := range d.cores {
		if !d.np.CanRollback(coreID) {
			return 0, fmt.Errorf("npu: core %d: %w", coreID, ErrNothingRetained)
		}
	}
	var cycles uint64
	for _, coreID := range d.cores {
		c, err := d.Rollback(coreID)
		if err != nil {
			return cycles, err
		}
		cycles += c
	}
	return cycles, nil
}

// HasStaged reports whether a core has a staged (uncommitted) bundle.
func (np *NP) HasStaged(coreID int) bool {
	if coreID < 0 || coreID >= len(np.slots) {
		return false
	}
	slot := np.slots[coreID]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	return slot.staged != nil
}

// CanRollback reports whether a core retains a previous version.
func (np *NP) CanRollback(coreID int) bool {
	if coreID < 0 || coreID >= len(np.slots) {
		return false
	}
	slot := np.slots[coreID]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	return slot.prev != nil
}

// StagedApp reports the application name staged on a core, if any.
func (np *NP) StagedApp(coreID int) (string, bool) {
	if coreID < 0 || coreID >= len(np.slots) {
		return "", false
	}
	slot := np.slots[coreID]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.staged == nil {
		return "", false
	}
	return slot.staged.appName, true
}

// RetainedApp reports the application name of a core's retained previous
// version, if any.
func (np *NP) RetainedApp(coreID int) (string, bool) {
	if coreID < 0 || coreID >= len(np.slots) {
		return "", false
	}
	slot := np.slots[coreID]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.prev == nil {
		return "", false
	}
	return slot.prev.appName, true
}
