package campaign

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"

	"sdmmon/internal/threat"
)

// The canonical campaign wire format ("CAMP"), following the repo's
// serialization idiom: 4-byte ASCII magic, FNV-1a checksum over the
// payload, big-endian fixed-width integers, length-prefixed strings, and a
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
	if s.Shards == 0 {
		s.Shards = 3
	}
	if s.Cores == 0 {
		s.Cores = 4
	}
	if s.PacketsPerTick == 0 {
		s.PacketsPerTick = 30 * s.Shards
	}
	if s.Compression == "" {
		s.Compression = "sbox"
	}
	switch s.Family {
	case FamilyGadget:
		if s.Mutants == 0 {
			s.Mutants = 24
		}
		if s.Ticks == 0 {
			s.Ticks = 48
		}
	case FamilyCollision:
		if s.ProbeBudget == 0 && s.CycleBudget == 0 {
			s.ProbeBudget = 192
		}
		if s.Ticks == 0 {
			s.Ticks = 96
		}
	case FamilySlowDrip:
		if s.Ticks == 0 {
			s.Ticks = 80
		}
	case FamilyNoC:
		if s.Mutants == 0 {
			s.Mutants = 8
		}
		if s.Ticks == 0 {
			e := (s.Mutants + 1) / 2
			d := s.Mutants / 2
			s.Ticks = Warmup + 8*e + 14*d + 14
		}
	case FamilyPoison:
		if s.Ticks == 0 {
			s.Ticks = 64
		}
	case FamilyBurst:
		if s.Ticks == 0 {
			s.Ticks = 36
		}
	case FamilyRamp:
		if s.Ticks == 0 {
			s.Ticks = 48
		}
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

func checksum(b []byte) uint32 {
	h := fnv.New32a()
	h.Write(b)
	return h.Sum32()
}

// Encode serializes the spec under the CAMP envelope.
func (s Spec) Encode() []byte {
	var buf bytes.Buffer
	buf.WriteByte(specVersion)
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(s.Family)))
	buf.Write(n[:])
	buf.WriteString(s.Family)
	var u64 [8]byte
	binary.BigEndian.PutUint64(u64[:], uint64(s.Seed))
	buf.Write(u64[:])
	var u16 [2]byte
	binary.BigEndian.PutUint16(u16[:], uint16(s.Shards))
	buf.Write(u16[:])
	binary.BigEndian.PutUint16(u16[:], uint16(s.Cores))
	buf.Write(u16[:])
	for _, v := range []int{s.Ticks, s.PacketsPerTick, s.Mutants, s.ProbeBudget, s.DutyMilli} {
		binary.BigEndian.PutUint32(n[:], uint32(v))
		buf.Write(n[:])
	}
	binary.BigEndian.PutUint64(u64[:], s.CycleBudget)
	buf.Write(u64[:])
	comp := compSBox
	if s.Compression == "sum" {
		comp = compSum
	}
	buf.WriteByte(comp)
	buf.WriteByte(uint8(s.FreezeAt))

	payload := buf.Bytes()
	out := make([]byte, 0, 8+len(payload))
	out = append(out, specMagic...)
	var c [4]byte
	binary.BigEndian.PutUint32(c[:], checksum(payload))
	out = append(out, c[:]...)
	return append(out, payload...)
}

// DecodeSpec strictly parses a CAMP payload: bad magic, checksum
// mismatches, unknown enums, truncation, out-of-range fields, and trailing
// bytes are all rejected, and the decoded spec must itself validate.
func DecodeSpec(wire []byte) (Spec, error) {
	var s Spec
	if len(wire) < 8 || string(wire[:4]) != specMagic {
		return s, fmt.Errorf("%w: bad %s envelope", ErrWire, specMagic)
	}
	payload := wire[8:]
	if binary.BigEndian.Uint32(wire[4:8]) != checksum(payload) {
		return s, fmt.Errorf("%w: checksum mismatch", ErrWire)
	}
	r := bytes.NewReader(payload)
	ver, err := r.ReadByte()
	if err != nil {
		return s, fmt.Errorf("%w: version: %v", ErrWire, err)
	}
	if ver != specVersion {
		return s, fmt.Errorf("%w: unsupported version %d", ErrWire, ver)
	}
	var flen uint32
	if err := binary.Read(r, binary.BigEndian, &flen); err != nil {
		return s, fmt.Errorf("%w: family length: %v", ErrWire, err)
	}
	if int64(flen) > int64(r.Len()) {
		return s, fmt.Errorf("%w: family length %d exceeds payload", ErrWire, flen)
	}
	fam := make([]byte, flen)
	if _, err := io.ReadFull(r, fam); err != nil {
		return s, fmt.Errorf("%w: family: %v", ErrWire, err)
	}
	s.Family = string(fam)
	var seed uint64
	if err := binary.Read(r, binary.BigEndian, &seed); err != nil {
		return s, fmt.Errorf("%w: seed: %v", ErrWire, err)
	}
	s.Seed = int64(seed)
	var v16 uint16
	if err := binary.Read(r, binary.BigEndian, &v16); err != nil {
		return s, fmt.Errorf("%w: shards: %v", ErrWire, err)
	}
	s.Shards = int(v16)
	if err := binary.Read(r, binary.BigEndian, &v16); err != nil {
		return s, fmt.Errorf("%w: cores: %v", ErrWire, err)
	}
	s.Cores = int(v16)
	u32s := []*int{&s.Ticks, &s.PacketsPerTick, &s.Mutants, &s.ProbeBudget, &s.DutyMilli}
	for i, dst := range u32s {
		var v uint32
		if err := binary.Read(r, binary.BigEndian, &v); err != nil {
			return s, fmt.Errorf("%w: u32 field %d: %v", ErrWire, i, err)
		}
		if v > 1<<31-1 {
			return s, fmt.Errorf("%w: u32 field %d overflows int", ErrWire, i)
		}
		*dst = int(v)
	}
	if err := binary.Read(r, binary.BigEndian, &s.CycleBudget); err != nil {
		return s, fmt.Errorf("%w: cycle budget: %v", ErrWire, err)
	}
	comp, err := r.ReadByte()
	if err != nil {
		return s, fmt.Errorf("%w: compression: %v", ErrWire, err)
	}
	switch comp {
	case compSum:
		s.Compression = "sum"
	case compSBox:
		s.Compression = "sbox"
	default:
		return s, fmt.Errorf("%w: unknown compression %d", ErrWire, comp)
	}
	fz, err := r.ReadByte()
	if err != nil {
		return s, fmt.Errorf("%w: freeze level: %v", ErrWire, err)
	}
	s.FreezeAt = threat.Level(fz)
	if r.Len() != 0 {
		return s, fmt.Errorf("%w: %d trailing spec bytes", ErrWire, r.Len())
	}
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
