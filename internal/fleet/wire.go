package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"sdmmon/internal/envelope"
	"sdmmon/internal/network"
	"sdmmon/internal/seccrypto"
)

// The control plane's wire formats. All follow the repo's serialization
// idiom (seccrypto's ledger): 4-byte ASCII magic, big-endian fixed-width
// integers, length-prefixed byte strings, and a strict decoder that rejects
// truncation, bad counts, and trailing bytes. Every message travels in the
// checksummed internal/envelope — the simulation's stand-in for the
// signature check: a datagram corrupted on the wire fails verification at
// the router and is retried by the sender, never trusted.

// ErrWire is wrapped by every decode failure.
var ErrWire = errors.New("fleet: malformed wire payload")

func writeBytes(buf *bytes.Buffer, b []byte) {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(b)))
	buf.Write(n[:])
	buf.Write(b)
}

func readBytes(r *bytes.Reader, what string) ([]byte, error) {
	var n uint32
	if err := binary.Read(r, binary.BigEndian, &n); err != nil {
		return nil, fmt.Errorf("%w: %s length: %v", ErrWire, what, err)
	}
	if int64(n) > int64(r.Len()) {
		return nil, fmt.Errorf("%w: %s length %d exceeds payload", ErrWire, what, n)
	}
	out := make([]byte, n)
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrWire, what, err)
	}
	return out, nil
}

func writeManifest(buf *bytes.Buffer, m seccrypto.Manifest) {
	writeBytes(buf, []byte(m.AppName))
	writeBytes(buf, []byte(m.Version))
	var s [8]byte
	binary.BigEndian.PutUint64(s[:], m.Sequence)
	buf.Write(s[:])
}

func readManifest(r *bytes.Reader) (seccrypto.Manifest, error) {
	var m seccrypto.Manifest
	app, err := readBytes(r, "app name")
	if err != nil {
		return m, err
	}
	ver, err := readBytes(r, "version")
	if err != nil {
		return m, err
	}
	if err := binary.Read(r, binary.BigEndian, &m.Sequence); err != nil {
		return m, fmt.Errorf("%w: sequence: %v", ErrWire, err)
	}
	m.AppName, m.Version = string(app), string(ver)
	return m, nil
}

// Bundle is one router's installation payload: the release manifest, the
// router's assigned hash parameter, and the binary plus the monitoring
// graph extracted under that parameter.
type Bundle struct {
	Manifest seccrypto.Manifest
	Param    uint32
	Binary   []byte
	Graph    []byte
}

// EncodeBundle serializes a bundle ("FLTB").
func EncodeBundle(b Bundle) []byte {
	var buf bytes.Buffer
	writeManifest(&buf, b.Manifest)
	var p [4]byte
	binary.BigEndian.PutUint32(p[:], b.Param)
	buf.Write(p[:])
	writeBytes(&buf, b.Binary)
	writeBytes(&buf, b.Graph)
	return envelope.Seal("FLTB", buf.Bytes())
}

// DecodeBundle strictly parses an FLTB payload.
func DecodeBundle(wire []byte) (Bundle, error) {
	var b Bundle
	payload, err := envelope.Open(wire, "FLTB", ErrWire)
	if err != nil {
		return b, err
	}
	r := bytes.NewReader(payload)
	if b.Manifest, err = readManifest(r); err != nil {
		return b, err
	}
	if err := binary.Read(r, binary.BigEndian, &b.Param); err != nil {
		return b, fmt.Errorf("%w: param: %v", ErrWire, err)
	}
	if b.Binary, err = readBytes(r, "binary"); err != nil {
		return b, err
	}
	if b.Graph, err = readBytes(r, "graph"); err != nil {
		return b, err
	}
	if r.Len() != 0 {
		return b, fmt.Errorf("%w: %d trailing bundle bytes", ErrWire, r.Len())
	}
	return b, nil
}

// Command ops.
const (
	OpCommit uint8 = iota + 1
	OpRollback
)

// Command is a control-plane order addressed at one release: cut the
// staged bundle over, or roll the named release back.
type Command struct {
	Op       uint8
	Manifest seccrypto.Manifest
}

// EncodeCommand serializes a command ("FLCM").
func EncodeCommand(c Command) []byte {
	var buf bytes.Buffer
	buf.WriteByte(c.Op)
	writeManifest(&buf, c.Manifest)
	return envelope.Seal("FLCM", buf.Bytes())
}

// DecodeCommand strictly parses an FLCM payload.
func DecodeCommand(wire []byte) (Command, error) {
	var c Command
	payload, err := envelope.Open(wire, "FLCM", ErrWire)
	if err != nil {
		return c, err
	}
	r := bytes.NewReader(payload)
	op, err := r.ReadByte()
	if err != nil {
		return c, fmt.Errorf("%w: op: %v", ErrWire, err)
	}
	if op != OpCommit && op != OpRollback {
		return c, fmt.Errorf("%w: unknown op %d", ErrWire, op)
	}
	c.Op = op
	if c.Manifest, err = readManifest(r); err != nil {
		return c, err
	}
	if r.Len() != 0 {
		return c, fmt.Errorf("%w: %d trailing command bytes", ErrWire, r.Len())
	}
	return c, nil
}

// RotationPlan assigns every router a hash parameter. A valid plan is
// pairwise distinct: no two routers share a parameter, so a per-parameter
// monitor bypass engineered against one router fails on every other.
type RotationPlan struct {
	Params map[string]uint32
}

// NewRotationPlan draws a deterministic pairwise-distinct assignment for
// the given router IDs from the seed. The same (seed, IDs) always produces
// the same plan — a resumed rollout re-derives identical payloads.
func NewRotationPlan(seed int64, ids []string) *RotationPlan {
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	rng := rand.New(rand.NewSource(network.DeriveSeed(seed, "rotation-plan")))
	used := make(map[uint32]bool, len(sorted))
	plan := &RotationPlan{Params: make(map[string]uint32, len(sorted))}
	for _, id := range sorted {
		p := rng.Uint32()
		for used[p] {
			p = rng.Uint32()
		}
		used[p] = true
		plan.Params[id] = p
	}
	return plan
}

// Distinct verifies the pairwise-distinct invariant.
func (p *RotationPlan) Distinct() bool {
	seen := make(map[uint32]bool, len(p.Params))
	for _, v := range p.Params {
		if seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// Marshal serializes the plan ("FLRP"), entries sorted by router ID so the
// encoding is canonical.
func (p *RotationPlan) Marshal() []byte {
	ids := make([]string, 0, len(p.Params))
	for id := range p.Params {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var buf bytes.Buffer
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(ids)))
	buf.Write(n[:])
	for _, id := range ids {
		writeBytes(&buf, []byte(id))
		var v [4]byte
		binary.BigEndian.PutUint32(v[:], p.Params[id])
		buf.Write(v[:])
	}
	return envelope.Seal("FLRP", buf.Bytes())
}

// UnmarshalRotationPlan strictly parses an FLRP payload, rejecting
// duplicate router IDs and duplicate parameters (a plan that violates the
// rotation invariant must not decode).
func UnmarshalRotationPlan(wire []byte) (*RotationPlan, error) {
	payload, err := envelope.Open(wire, "FLRP", ErrWire)
	if err != nil {
		return nil, err
	}
	r := bytes.NewReader(payload)
	var count uint32
	if err := binary.Read(r, binary.BigEndian, &count); err != nil {
		return nil, fmt.Errorf("%w: plan count: %v", ErrWire, err)
	}
	if int64(count) > int64(r.Len()) { // each entry needs >= 8 bytes
		return nil, fmt.Errorf("%w: plan count %d exceeds payload", ErrWire, count)
	}
	plan := &RotationPlan{Params: make(map[string]uint32, count)}
	seen := make(map[uint32]bool, count)
	prevID := ""
	for i := uint32(0); i < count; i++ {
		id, err := readBytes(r, "router id")
		if err != nil {
			return nil, err
		}
		if i > 0 && string(id) <= prevID {
			return nil, fmt.Errorf("%w: plan entry %q out of order", ErrWire, id)
		}
		prevID = string(id)
		var v uint32
		if err := binary.Read(r, binary.BigEndian, &v); err != nil {
			return nil, fmt.Errorf("%w: plan entry %d: %v", ErrWire, i, err)
		}
		if seen[v] {
			return nil, fmt.Errorf("%w: duplicate parameter %#x", ErrWire, v)
		}
		seen[v] = true
		plan.Params[string(id)] = v
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing plan bytes", ErrWire, r.Len())
	}
	return plan, nil
}
