// Package envelope is the repo's one magic-and-checksum wire envelope: a
// 4-byte ASCII magic, a big-endian FNV-1a checksum over the payload, then
// the payload. The fleet control plane's bundles, commands and reports
// and the campaign spec all travel in it. The checksum is the
// simulation's stand-in for a signature check: a payload corrupted on the
// wire fails Open and is never decoded.
package envelope

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// Sum is the envelope's payload checksum (32-bit FNV-1a).
func Sum(payload []byte) uint32 {
	h := fnv.New32a()
	h.Write(payload)
	return h.Sum32()
}

// Seal prepends magic and the payload's checksum.
func Seal(magic string, payload []byte) []byte {
	out := make([]byte, 0, 8+len(payload))
	out = append(out, magic...)
	out = binary.BigEndian.AppendUint32(out, Sum(payload))
	return append(out, payload...)
}

// Open verifies an envelope's magic and checksum and returns its payload.
// Every failure wraps errWire, the caller's malformed-payload sentinel.
func Open(wire []byte, magic string, errWire error) ([]byte, error) {
	if len(wire) < 8 || string(wire[:4]) != magic {
		return nil, fmt.Errorf("%w: bad %s envelope", errWire, magic)
	}
	payload := wire[8:]
	if binary.BigEndian.Uint32(wire[4:8]) != Sum(payload) {
		return nil, fmt.Errorf("%w: %s checksum mismatch", errWire, magic)
	}
	return payload, nil
}
