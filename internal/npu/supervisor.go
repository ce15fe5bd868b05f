package npu

import (
	"errors"
	"fmt"
)

// The per-core supervisor turns the paper's single-packet recovery (§2.1)
// into graceful fleet-grade degradation: a core whose alarm/fault rate in a
// sliding window exceeds a threshold is *quarantined* — removed from
// dispatch while the remaining cores keep forwarding — and re-introduced
// through a probation period after a clean re-installation. Transient
// faults (one flipped packet) never quarantine; persistent faults
// (corrupted instruction memory, a broken hash unit) do, because recovery
// resets registers, not memory, so they alarm on every packet.

// Typed dispatch errors.
var (
	// ErrNoAppInstalled: no core has an application installed.
	ErrNoAppInstalled = errors.New("npu: no core has an application installed")
	// ErrCoreQuarantined: the addressed core is quarantined and takes no
	// traffic until it is re-installed and passes probation.
	ErrCoreQuarantined = errors.New("npu: core quarantined")
	// ErrNoCoreAvailable: every loaded core is quarantined.
	ErrNoCoreAvailable = errors.New("npu: no core available (all quarantined)")
)

// SupervisorConfig parameterizes the per-core health tracker. The zero
// value disables the supervisor (no per-packet overhead beyond a nil-check,
// and no quarantine transitions — manual Quarantine still works).
type SupervisorConfig struct {
	// Window is the sliding window length in packets. 0 disables the
	// supervisor.
	Window int
	// Threshold is the number of alarm/fault events within Window that
	// quarantines the core. Values < 1 are clamped to 1.
	Threshold int
	// ProbationPackets is the number of consecutive clean packets a
	// re-installed core must process before it returns to full health; a
	// single event during probation re-quarantines immediately. Values < 1
	// are clamped to 1.
	ProbationPackets int
}

// DefaultSupervisorConfig quarantines a core that alarms or faults on 8 of
// its last 64 packets, and requires 32 clean packets after re-install.
func DefaultSupervisorConfig() SupervisorConfig {
	return SupervisorConfig{Window: 64, Threshold: 8, ProbationPackets: 32}
}

// CoreHealth is a core's supervisor state.
type CoreHealth int

const (
	// CoreHealthy: the core is in dispatch with no restrictions.
	CoreHealthy CoreHealth = iota
	// CoreProbation: the core is back in dispatch after a re-install but
	// one event re-quarantines it immediately.
	CoreProbation
	// CoreQuarantined: the core is out of dispatch.
	CoreQuarantined
)

func (h CoreHealth) String() string {
	switch h {
	case CoreHealthy:
		return "healthy"
	case CoreProbation:
		return "probation"
	case CoreQuarantined:
		return "quarantined"
	}
	return fmt.Sprintf("health(%d)", int(h))
}

// supState is the allocation-free per-core health tracker. The window is a
// preallocated ring of event flags; the steady-state record() path touches
// only fixed-size fields, preserving the zero-alloc packet path.
type supState struct {
	enabled        bool
	window         []uint8 // ring: 1 = alarm/fault on that packet
	sum            int     // events currently inside the window
	pos            int     // ring cursor
	threshold      int
	probation      int // remaining clean probation packets; 0 = none
	probationTotal int
	quarantined    bool
}

func newSupState(cfg SupervisorConfig) supState {
	if cfg.Window <= 0 {
		return supState{}
	}
	if cfg.Threshold < 1 {
		cfg.Threshold = 1
	}
	if cfg.ProbationPackets < 1 {
		cfg.ProbationPackets = 1
	}
	return supState{
		enabled:        true,
		window:         make([]uint8, cfg.Window),
		threshold:      cfg.Threshold,
		probationTotal: cfg.ProbationPackets,
	}
}

// record folds one packet outcome into the window and reports whether this
// packet's event quarantined the core.
func (s *supState) record(event bool) bool {
	if !s.enabled || s.quarantined {
		return false
	}
	if s.probation > 0 {
		if event {
			s.quarantined = true
			return true
		}
		s.probation--
		return false
	}
	old := s.window[s.pos]
	s.sum -= int(old)
	var v uint8
	if event {
		v = 1
	}
	s.window[s.pos] = v
	s.sum += int(v)
	s.pos++
	if s.pos == len(s.window) {
		s.pos = 0
	}
	if s.sum >= s.threshold {
		s.quarantined = true
		return true
	}
	return false
}

// onInstall handles a (re-)installation: a quarantined core re-enters
// dispatch on probation with a cleared window — the probe-reintroduction
// step of the quarantine policy.
func (s *supState) onInstall() {
	if !s.quarantined {
		return
	}
	s.quarantined = false
	if s.enabled {
		s.probation = s.probationTotal
		for i := range s.window {
			s.window[i] = 0
		}
		s.sum = 0
		s.pos = 0
	}
}

// available reports whether the slot can take traffic.
func (s *coreSlot) available() bool { return s.loaded && !s.sup.quarantined }

// CoreHealth reports a core's supervisor state.
func (np *NP) CoreHealth(coreID int) (CoreHealth, error) {
	if coreID < 0 || coreID >= len(np.slots) {
		return CoreHealthy, fmt.Errorf("npu: core %d out of range", coreID)
	}
	s := &np.slots[coreID].sup
	switch {
	case s.quarantined:
		return CoreQuarantined, nil
	case s.probation > 0:
		return CoreProbation, nil
	}
	return CoreHealthy, nil
}

// AvailableCores counts the view's loaded, non-quarantined cores (none, on
// a stale view). It takes each slot's lock, so it is safe to call while
// the NP is processing.
func (d *Domain) AvailableCores() int {
	if d.Err() != nil {
		return 0
	}
	n := 0
	for _, coreID := range d.cores {
		s := d.np.slots[coreID]
		s.mu.Lock()
		if s.available() {
			n++
		}
		s.mu.Unlock()
	}
	return n
}

// Healthy reports whether at least one of the view's cores can take
// traffic — the per-lane health probe of the shard plane's failover logic.
// A stale view is never healthy.
func (d *Domain) Healthy() bool { return d.AvailableCores() > 0 }

// Quarantine removes a core the view owns from dispatch (operator action,
// a tenant responder isolating its own core, or a mid-run failover
// drill). It works with or without the supervisor; the core returns via
// re-installation like any quarantined core. The slot lock orders the
// write against an in-flight packet, so quarantining a core that is
// actively processing is safe.
func (d *Domain) Quarantine(coreID int) error {
	s, err := d.slot(coreID)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.sup.quarantined = true
	s.mu.Unlock()
	return nil
}
