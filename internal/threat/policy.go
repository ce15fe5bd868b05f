package threat

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// Action is one graded response.
type Action uint8

const (
	// ActTightenAdmission halves the offending shard's ingress admission
	// thresholds (queue capacity and CE-mark threshold), shedding load
	// pressure at the edge.
	ActTightenAdmission Action = iota
	// ActIsolateCore quarantines the offending core via the existing
	// per-core supervisor.
	ActIsolateCore
	// ActRehashShard removes the offending shard from dispatch; its flows
	// rendezvous-rehash onto the surviving shards (HRW minimal disruption).
	ActRehashShard
	// ActZeroizeStaged discards every staged (uncommitted) upgrade bundle
	// fleet-wide — a compromised plane must not commit unvetted code.
	ActZeroizeStaged
	// ActLockdown stops admitting traffic plane-wide; workers drain the
	// backlog and every later arrival is counted as starved.
	ActLockdown
	// NumActions bounds per-action arrays.
	NumActions int = iota
)

var actionNames = [NumActions]string{
	"tighten_admission", "isolate_core", "rehash_shard", "zeroize_staged", "lockdown",
}

func (a Action) String() string {
	if int(a) < NumActions {
		return actionNames[a]
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// ParseAction resolves an action name.
func ParseAction(s string) (Action, error) {
	for i, n := range actionNames {
		if n == s {
			return Action(i), nil
		}
	}
	return 0, fmt.Errorf("threat: unknown action %q", s)
}

// Responder executes graded responses against the plane. The engine calls
// it with the offending shard/core of the transition that fired the action;
// Relax is called on every de-escalation so reversible responses (admission
// tightening) can be undone when the threat passes. PlaneResponder binds
// it to a shard.Plane — concurrent, or stepped as the campaigns drive it.
type Responder interface {
	TightenAdmission(shard int) error
	IsolateCore(shard, core int) error
	RehashShard(shard int) error
	ZeroizeStaged() error
	Lockdown() error
	Relax(to Level) error
}

// Policy maps threat levels to response actions.
type Policy struct {
	actions [NumLevels][]Action
}

// DefaultPolicy is the graded default: observe at LOW, tighten admission at
// MEDIUM, isolate the offender at HIGH, and at CRITICAL rehash flows away,
// zeroize staged bundles, and lock the plane down.
func DefaultPolicy() Policy {
	var p Policy
	p.actions[Medium] = []Action{ActTightenAdmission}
	p.actions[High] = []Action{ActIsolateCore, ActTightenAdmission}
	p.actions[Critical] = []Action{ActRehashShard, ActZeroizeStaged, ActLockdown}
	return p
}

// For returns the actions configured for a level (shared; do not mutate).
func (p Policy) For(l Level) []Action {
	if int(l) >= NumLevels {
		return nil
	}
	return p.actions[l]
}

// policyJSON is the wire schema of a policy configuration.
type policyJSON struct {
	Version   int                 `json:"version"`
	Responses map[string][]string `json:"responses"`
}

// PolicyVersion is the only accepted policy schema version.
const PolicyVersion = 1

// DecodePolicy parses a policy configuration, rejecting malformed input
// loudly instead of defaulting: unknown fields, unknown level or action
// names, actions on "none", duplicate actions within a level, a missing or
// wrong version, and trailing garbage are all errors.
func DecodePolicy(b []byte) (Policy, error) {
	var p Policy
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var cfg policyJSON
	if err := dec.Decode(&cfg); err != nil {
		return p, fmt.Errorf("threat: policy decode: %w", err)
	}
	if dec.More() {
		return p, fmt.Errorf("threat: policy decode: trailing data after configuration")
	}
	if cfg.Version != PolicyVersion {
		return p, fmt.Errorf("threat: policy version %d, want %d", cfg.Version, PolicyVersion)
	}
	for name, acts := range cfg.Responses {
		l, err := ParseLevel(name)
		if err != nil {
			return Policy{}, err
		}
		if l == None {
			return Policy{}, fmt.Errorf("threat: level %q cannot carry responses", name)
		}
		seen := [NumActions]bool{}
		list := make([]Action, 0, len(acts))
		for _, an := range acts {
			a, err := ParseAction(an)
			if err != nil {
				return Policy{}, err
			}
			if seen[a] {
				return Policy{}, fmt.Errorf("threat: duplicate action %q at level %q", an, name)
			}
			seen[a] = true
			list = append(list, a)
		}
		p.actions[l] = list
	}
	return p, nil
}

// Encode renders the policy in the canonical wire form: map keys are
// emitted in level order by encoding/json's key sort, levels with no
// actions are omitted, so Encode∘Decode is a fixed point (the fuzz
// round-trip property).
func (p Policy) Encode() ([]byte, error) {
	cfg := policyJSON{Version: PolicyVersion, Responses: map[string][]string{}}
	for l := 1; l < NumLevels; l++ {
		if len(p.actions[l]) == 0 {
			continue
		}
		names := make([]string, len(p.actions[l]))
		for i, a := range p.actions[l] {
			names[i] = a.String()
		}
		cfg.Responses[Level(l).String()] = names
	}
	return json.Marshal(cfg)
}

// Equal reports whether two policies configure identical responses.
func (p Policy) Equal(q Policy) bool {
	for l := 0; l < NumLevels; l++ {
		if len(p.actions[l]) != len(q.actions[l]) {
			return false
		}
		for i := range p.actions[l] {
			if p.actions[l][i] != q.actions[l][i] {
				return false
			}
		}
	}
	return true
}

// Levels returns the levels that carry at least one action, ascending
// (diagnostics).
func (p Policy) Levels() []Level {
	var out []Level
	for l := 1; l < NumLevels; l++ {
		if len(p.actions[l]) > 0 {
			out = append(out, Level(l))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
