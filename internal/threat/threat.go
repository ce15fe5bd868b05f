// Package threat grades the monitored data plane's response to attacks and
// faults. The paper's defense is binary — a monitor mismatch drops the
// packet, and (since the supervisor) a persistently faulty core is
// quarantined — but a deployed router needs proportionate responses and
// evidence. This package supplies both, following the behavioral-baseline
// shape of the co-processor monitoring literature (Chevalier et al.,
// R5Detect) rather than single-event triggers:
//
//   - EWMA baselines (ewma.go) learn each signal's normal mean and spread —
//     per-core alarm rate, per-shard fault rate, packet-cycle outliers from
//     the np_packet_cycles histograms, ingress backpressure — and score new
//     samples by their positive deviation in σ units;
//
//   - a threat-classifier FSM (fsm.go) folds the worst deviation into a
//     graded level, NONE→LOW→MEDIUM→HIGH→CRITICAL, with hysteresis (a
//     score in the band below the entry threshold holds the level) and
//     per-level dwell times in virtual time (de-escalation is slow and
//     stepwise; escalation is immediate and may jump levels);
//
//   - a pluggable response policy (policy.go) maps levels to graded
//     actions — tighten a shard's admission control, isolate the offending
//     core, rehash flows off a shard, zeroize staged upgrade bundles, full
//     plane lockdown — fired through a Responder so the engine stays
//     decoupled from the plane it protects (responder.go binds the real
//     shard.Plane, which internal/campaign drives deterministically);
//
//   - a forensic capture unit (incident.go) that, on HIGH/CRITICAL
//     escalations, snapshots the pre-trigger obs EventRing window plus a
//     stats delta into a serializable incident record.
//
// The headline guarantee is determinism: the engine is a pure function of
// the samples it is fed and the virtual time it is fed them at. The same
// seeded attack campaign reproduces the same threat-level trajectory and
// the same incident records, byte for byte — pinned by internal/campaign's
// replay tests and the npsim -campaign drill.
package threat

import "fmt"

// Level is the graded threat level.
type Level uint8

const (
	// None: all signals within baseline.
	None Level = iota
	// Low: a signal deviates noticeably; observe, no response.
	Low
	// Medium: sustained or multi-signal deviation; soft responses
	// (admission tightening) are justified.
	Medium
	// High: attack-consistent behavior; offending components are isolated
	// and forensics captured.
	High
	// Critical: the plane itself is at risk; flows are rehashed away,
	// staged bundles zeroized, and the plane may be locked down.
	Critical
	// NumLevels bounds per-level arrays.
	NumLevels int = iota
)

var levelNames = [NumLevels]string{"none", "low", "medium", "high", "critical"}

func (l Level) String() string {
	if int(l) < NumLevels {
		return levelNames[l]
	}
	return fmt.Sprintf("level(%d)", uint8(l))
}

// MarshalText renders the level name (JSON-friendly).
func (l Level) MarshalText() ([]byte, error) {
	if int(l) >= NumLevels {
		return nil, fmt.Errorf("threat: level %d out of range", uint8(l))
	}
	return []byte(levelNames[l]), nil
}

// UnmarshalText parses a level name, rejecting unknown names loudly.
func (l *Level) UnmarshalText(b []byte) error {
	v, err := ParseLevel(string(b))
	if err != nil {
		return err
	}
	*l = v
	return nil
}

// ParseLevel resolves a level name.
func ParseLevel(s string) (Level, error) {
	for i, n := range levelNames {
		if n == s {
			return Level(i), nil
		}
	}
	return None, fmt.Errorf("threat: unknown level %q", s)
}

// Signal identifies one monitored behavioral signal.
type Signal uint8

const (
	// SigAlarmRate: monitor alarms per packet (per-core or per-shard).
	SigAlarmRate Signal = iota
	// SigFaultRate: architectural faults (including watchdog trips and
	// hash-miss drops) per packet.
	SigFaultRate
	// SigCycleOutlier: fraction of packets whose cycle cost lands beyond
	// the outlier bound of the np_packet_cycles histogram.
	SigCycleOutlier
	// SigBackpressure: admission-control pressure at a shard's ingress —
	// tail drops plus CE marks per arrival.
	SigBackpressure
	// NumSignals bounds per-signal arrays.
	NumSignals int = iota
)

var signalNames = [NumSignals]string{
	"alarm_rate", "fault_rate", "cycle_outlier", "backpressure",
}

func (s Signal) String() string {
	if int(s) < NumSignals {
		return signalNames[s]
	}
	return fmt.Sprintf("signal(%d)", uint8(s))
}

// Tick is virtual time as the engine sees it: an opaque monotonic counter
// the caller advances (the campaign driver ticks once per sampling window).
// Dwell times are expressed in ticks, so trajectories are independent of
// wall clocks — the root of the replay guarantee.
type Tick uint64

// Sample is one signal observation delivered to the engine. Core is -1 for
// shard-scoped signals. The engine processes samples in the order given, so
// a deterministic producer yields a deterministic trajectory.
type Sample struct {
	Shard  int
	Core   int
	Signal Signal
	Value  float64
}

// SignalReading is the scored, serializable form of a sample — what
// transitions and incident records carry.
type SignalReading struct {
	Shard  int     `json:"shard"`
	Core   int     `json:"core"`
	Signal string  `json:"signal"`
	Value  float64 `json:"value"`
	Score  float64 `json:"score"`
}

// LevelTransition records one FSM level change.
type LevelTransition struct {
	Tick  uint64  `json:"tick"`
	From  Level   `json:"from"`
	To    Level   `json:"to"`
	Score float64 `json:"score"`
	// Shard/Core identify the offender: the source of the worst-scoring
	// signal at the transition tick (Core -1 when shard-scoped).
	Shard int `json:"shard"`
	Core  int `json:"core"`
	// Actions lists the response actions fired on this escalation, in
	// firing order (empty on de-escalations).
	Actions []string `json:"actions,omitempty"`
}
