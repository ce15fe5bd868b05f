package campaign

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"sdmmon/internal/envelope"
	"sdmmon/internal/threat"
)

// The canonical campaign wire format ("CAMP"), following the repo's
// serialization idiom: the magic-and-checksum internal/envelope around
// big-endian fixed-width integers, length-prefixed strings, and a
// strict decoder that rejects truncation, unknown enums, and trailing
// bytes. A Spec is the *resolved* configuration — every default already
// applied — so Encode∘Decode is a fixed point and a decoded Spec replays
// the exact campaign that produced it.

// ErrWire is wrapped by every decode failure.
var ErrWire = errors.New("campaign: malformed wire payload")

const (
	specMagic   = "CAMP"
	specVersion = 1
)

// Compression enum on the wire.
const (
	compSum  uint8 = 0
	compSBox uint8 = 1
)

// Spec is the canonical, fully resolved campaign parameterization.
type Spec struct {
	Family string `json:"family"`
	Seed   int64  `json:"seed"`
	Shards int    `json:"shards"`
	Cores  int    `json:"cores"`
	Ticks  int    `json:"ticks"`
	// PacketsPerTick is the plane-wide clean arrival rate.
	PacketsPerTick int `json:"packets_per_tick"`
	// Mutants sizes the mutation pool (gadget chains, noc bursts).
	Mutants int `json:"mutants"`
	// ProbeBudget / CycleBudget cap the collision family's search.
	ProbeBudget int    `json:"probe_budget"`
	CycleBudget uint64 `json:"cycle_budget"`
	// Compression is "sum" or "sbox".
	Compression string `json:"compression"`
	// DutyMilli pins the slowdrip family to a fixed duty (millis); 0 means
	// adaptive titration.
	DutyMilli int `json:"duty_milli"`
	// FreezeAt overrides the engine's baseline-freeze level; 0 keeps the
	// campaign default (threat.Low).
	FreezeAt threat.Level `json:"freeze_at"`
}

// ResolveSpec applies family defaults and validates, producing the
// canonical Spec a Config denotes.
func ResolveSpec(cfg Config) (Spec, error) {
	s := Spec{
		Family: cfg.Family, Seed: cfg.Seed,
		Shards: cfg.Shards, Cores: cfg.Cores,
		Ticks: cfg.Ticks, PacketsPerTick: cfg.PacketsPerTick,
		Mutants:     cfg.Mutants,
		ProbeBudget: cfg.ProbeBudget, CycleBudget: cfg.CycleBudget,
		Compression: cfg.Compression,
		DutyMilli:   int(cfg.Duty*1000 + 0.5),
		FreezeAt:    cfg.FreezeAt,
	}
	s.Shards = cmp.Or(s.Shards, 3)
	s.Cores = cmp.Or(s.Cores, 4)
	s.PacketsPerTick = cmp.Or(s.PacketsPerTick, 30*s.Shards)
	s.Compression = cmp.Or(s.Compression, "sbox")
	switch s.Family {
	case FamilyGadget:
		s.Mutants = cmp.Or(s.Mutants, 24)
		s.Ticks = cmp.Or(s.Ticks, 48)
	case FamilyCollision:
		if s.ProbeBudget == 0 && s.CycleBudget == 0 {
			s.ProbeBudget = 192
		}
		s.Ticks = cmp.Or(s.Ticks, 96)
	case FamilySlowDrip:
		s.Ticks = cmp.Or(s.Ticks, 80)
	case FamilyNoC:
		s.Mutants = cmp.Or(s.Mutants, 8)
		e, d := (s.Mutants+1)/2, s.Mutants/2
		s.Ticks = cmp.Or(s.Ticks, Warmup+8*e+14*d+14)
	case FamilyPoison:
		s.Ticks = cmp.Or(s.Ticks, 64)
	case FamilyBurst:
		s.Ticks = cmp.Or(s.Ticks, 36)
	case FamilyRamp:
		s.Ticks = cmp.Or(s.Ticks, 48)
	default:
		return Spec{}, fmt.Errorf("campaign: unknown family %q (want one of %v)", s.Family, Families())
	}
	return s, s.validate()
}

func (s Spec) validate() error {
	known := false
	for _, f := range Families() {
		if s.Family == f {
			known = true
		}
	}
	if !known {
		return fmt.Errorf("campaign: unknown family %q", s.Family)
	}
	if s.Shards < 1 || s.Shards > 1<<16-1 || s.Cores < 2 || s.Cores > 1<<16-1 {
		return fmt.Errorf("campaign: need 1..65535 shards and 2..65535 cores, got %d/%d", s.Shards, s.Cores)
	}
	if s.Ticks < 1 || s.PacketsPerTick < 1 {
		return fmt.Errorf("campaign: need >= 1 tick and packet per tick, got %d/%d", s.Ticks, s.PacketsPerTick)
	}
	if s.Compression != "sum" && s.Compression != "sbox" {
		return fmt.Errorf("campaign: unknown compression %q", s.Compression)
	}
	if s.Family == FamilyCollision && s.ProbeBudget <= 0 && s.CycleBudget == 0 {
		return fmt.Errorf("campaign: collision family refuses an unbounded search budget")
	}
	if s.Mutants < 0 || s.ProbeBudget < 0 || s.DutyMilli < 0 {
		return fmt.Errorf("campaign: negative spec field: %+v", s)
	}
	if s.DutyMilli > 1000 {
		return fmt.Errorf("campaign: duty %d milli exceeds 1.0", s.DutyMilli)
	}
	if int(s.FreezeAt) >= threat.NumLevels {
		return fmt.Errorf("campaign: freeze level %d out of range", s.FreezeAt)
	}
	return nil
}

// checksum is the CAMP envelope's payload checksum.
var checksum = envelope.Sum

// Encode serializes the spec under the CAMP envelope.
func (s Spec) Encode() []byte {
	b := binary.BigEndian.AppendUint32([]byte{specVersion}, uint32(len(s.Family)))
	b = binary.BigEndian.AppendUint64(append(b, s.Family...), uint64(s.Seed))
	b = binary.BigEndian.AppendUint16(b, uint16(s.Shards))
	b = binary.BigEndian.AppendUint16(b, uint16(s.Cores))
	for _, v := range []int{s.Ticks, s.PacketsPerTick, s.Mutants, s.ProbeBudget, s.DutyMilli} {
		b = binary.BigEndian.AppendUint32(b, uint32(v))
	}
	b = binary.BigEndian.AppendUint64(b, s.CycleBudget)
	comp := compSBox
	if s.Compression == "sum" {
		comp = compSum
	}
	return envelope.Seal(specMagic, append(b, comp, uint8(s.FreezeAt)))
}

// specFixed is the payload's size after the family name: seed, shards,
// cores, five u32 fields, cycle budget, compression and freeze level.
const specFixed = 8 + 2 + 2 + 5*4 + 8 + 1 + 1

// DecodeSpec strictly parses a CAMP payload: bad magic, checksum
// mismatches, unknown enums, truncation, out-of-range fields, and trailing
// bytes are all rejected, and the decoded spec must itself validate.
func DecodeSpec(wire []byte) (Spec, error) {
	var s Spec
	p, err := envelope.Open(wire, specMagic, ErrWire)
	if err != nil {
		return s, err
	}
	if len(p) < 5 || p[0] != specVersion {
		return s, fmt.Errorf("%w: missing or unsupported version", ErrWire)
	}
	flen := uint64(binary.BigEndian.Uint32(p[1:5]))
	if p = p[5:]; flen+specFixed != uint64(len(p)) {
		return s, fmt.Errorf("%w: %d payload bytes after the version, want %d", ErrWire, len(p), flen+specFixed)
	}
	s.Family, p = string(p[:flen]), p[flen:]
	s.Seed = int64(binary.BigEndian.Uint64(p))
	s.Shards = int(binary.BigEndian.Uint16(p[8:]))
	s.Cores = int(binary.BigEndian.Uint16(p[10:]))
	for i, dst := range []*int{&s.Ticks, &s.PacketsPerTick, &s.Mutants, &s.ProbeBudget, &s.DutyMilli} {
		v := binary.BigEndian.Uint32(p[12+4*i:])
		if v > 1<<31-1 {
			return s, fmt.Errorf("%w: u32 field %d overflows int", ErrWire, i)
		}
		*dst = int(v)
	}
	s.CycleBudget = binary.BigEndian.Uint64(p[32:])
	switch p[40] {
	case compSum:
		s.Compression = "sum"
	case compSBox:
		s.Compression = "sbox"
	default:
		return s, fmt.Errorf("%w: unknown compression %d", ErrWire, p[40])
	}
	s.FreezeAt = threat.Level(p[41])
	if err := s.validate(); err != nil {
		return s, fmt.Errorf("%w: %v", ErrWire, err)
	}
	return s, nil
}

// ReplayBytes is the canonical serialization of a campaign result — the
// byte string the replay suite compares across runs. JSON with sorted map
// keys and no host-timing fields, so two runs of the same Spec are
// byte-identical.
func (r *Result) ReplayBytes() ([]byte, error) {
	return json.Marshal(r)
}
