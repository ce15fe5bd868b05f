package fleet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"sdmmon/internal/envelope"
	"sdmmon/internal/rollout"
	"sdmmon/internal/seccrypto"
)

// WaveStatus is one wave's position in the rollout.
type WaveStatus uint8

const (
	// WavePending: the wave has not run (or still has undelivered members).
	WavePending WaveStatus = iota
	// WaveCommitted: the wave's gate passed; stragglers may remain.
	WaveCommitted
	// WaveRolledBack: the wave's gate failed and its routers were rolled
	// back.
	WaveRolledBack

	numWaveStatuses = iota
)

var waveStatusNames = [numWaveStatuses]string{"pending", "committed", "rolled-back"}

func (s WaveStatus) String() string {
	if int(s) < numWaveStatuses {
		return waveStatusNames[s]
	}
	return fmt.Sprintf("wave-status(%d)", uint8(s))
}

// RouterRecord is one router's rollout outcome.
type RouterRecord struct {
	ID    string
	Wave  uint8
	State rollout.State
	// Byzantine marks a router whose claimed health diverged from the
	// controller's own observations.
	Byzantine bool
	// Attempts counts transmissions across every delivery to the router
	// (bundles and commands, including resumed runs).
	Attempts uint32
	// LastErr is the final delivery or command error, "" on success.
	LastErr string
}

// FleetReport is the rollout's resumable outcome: enough state for a
// restarted controller to finish the job without re-delivering to routers
// that already committed, plus the totals the experiments table reads. Its
// serialization ("FLTR") is canonical — records sorted by router ID, fixed
// encodings — so a seeded re-run reproduces identical bytes.
type FleetReport struct {
	Seed    int64
	Release seccrypto.Manifest
	Waves   []WaveStatus
	// Halted: a health gate failed; the rollout stopped and the failed
	// wave was rolled back. A halted report is not resumable — the fix
	// ships as a fresh release.
	Halted bool
	// Completed: every router committed and no gate failed.
	Completed bool
	// MakespanSeconds is the latest group-link virtual clock.
	MakespanSeconds float64
	// GroupClocks preserves each group link's virtual clock so a resumed
	// run continues the same timeline (partition windows stay aligned).
	GroupClocks []float64
	// Routers is sorted by ID.
	Routers []RouterRecord
	// Probe totals across the rollout (resume accumulates, never recounts).
	Probe rollout.Sample
	// TotalAttempts sums transmissions fleet-wide.
	TotalAttempts uint64
}

func putU64(buf *bytes.Buffer, v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	buf.Write(b[:])
}

func putU32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}

func putF64(buf *bytes.Buffer, v float64) { putU64(buf, math.Float64bits(v)) }

func putBool(buf *bytes.Buffer, v bool) {
	if v {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
}

// Marshal serializes the report canonically ("FLTR").
func (r *FleetReport) Marshal() []byte {
	recs := append([]RouterRecord(nil), r.Routers...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	var buf bytes.Buffer
	putU64(&buf, uint64(r.Seed))
	writeManifest(&buf, r.Release)
	putU32(&buf, uint32(len(r.Waves)))
	for _, w := range r.Waves {
		buf.WriteByte(uint8(w))
	}
	putBool(&buf, r.Halted)
	putBool(&buf, r.Completed)
	putF64(&buf, r.MakespanSeconds)
	putU32(&buf, uint32(len(r.GroupClocks)))
	for _, c := range r.GroupClocks {
		putF64(&buf, c)
	}
	putU32(&buf, uint32(len(recs)))
	for _, rec := range recs {
		writeBytes(&buf, []byte(rec.ID))
		buf.WriteByte(rec.Wave)
		buf.WriteByte(uint8(rec.State))
		putBool(&buf, rec.Byzantine)
		putU32(&buf, rec.Attempts)
		writeBytes(&buf, []byte(rec.LastErr))
	}
	putU64(&buf, r.Probe.Processed)
	putU64(&buf, r.Probe.Alarms)
	putU64(&buf, r.Probe.Faults)
	putU64(&buf, r.TotalAttempts)
	return envelope.Seal("FLTR", buf.Bytes())
}

// UnmarshalFleetReport strictly parses an FLTR payload: bad magic,
// checksum mismatch, truncation, out-of-range enums, unsorted or duplicate
// records, and trailing bytes are all rejected.
func UnmarshalFleetReport(wire []byte) (*FleetReport, error) {
	payload, err := envelope.Open(wire, "FLTR", ErrWire)
	if err != nil {
		return nil, err
	}
	rd := bytes.NewReader(payload)
	rep := &FleetReport{}
	var seed uint64
	if err := binary.Read(rd, binary.BigEndian, &seed); err != nil {
		return nil, fmt.Errorf("%w: seed: %v", ErrWire, err)
	}
	rep.Seed = int64(seed)
	if rep.Release, err = readManifest(rd); err != nil {
		return nil, err
	}
	var nWaves uint32
	if err := binary.Read(rd, binary.BigEndian, &nWaves); err != nil {
		return nil, fmt.Errorf("%w: wave count: %v", ErrWire, err)
	}
	if int64(nWaves) > int64(rd.Len()) {
		return nil, fmt.Errorf("%w: wave count %d exceeds payload", ErrWire, nWaves)
	}
	for i := uint32(0); i < nWaves; i++ {
		b, err := rd.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: wave %d: %v", ErrWire, i, err)
		}
		if int(b) >= numWaveStatuses {
			return nil, fmt.Errorf("%w: wave %d status %d out of range", ErrWire, i, b)
		}
		rep.Waves = append(rep.Waves, WaveStatus(b))
	}
	readBool := func(what string) (bool, error) {
		b, err := rd.ReadByte()
		if err != nil {
			return false, fmt.Errorf("%w: %s: %v", ErrWire, what, err)
		}
		if b > 1 {
			return false, fmt.Errorf("%w: %s flag %d", ErrWire, what, b)
		}
		return b == 1, nil
	}
	readF64 := func(what string) (float64, error) {
		var v uint64
		if err := binary.Read(rd, binary.BigEndian, &v); err != nil {
			return 0, fmt.Errorf("%w: %s: %v", ErrWire, what, err)
		}
		return math.Float64frombits(v), nil
	}
	if rep.Halted, err = readBool("halted"); err != nil {
		return nil, err
	}
	if rep.Completed, err = readBool("completed"); err != nil {
		return nil, err
	}
	if rep.MakespanSeconds, err = readF64("makespan"); err != nil {
		return nil, err
	}
	var nClocks uint32
	if err := binary.Read(rd, binary.BigEndian, &nClocks); err != nil {
		return nil, fmt.Errorf("%w: clock count: %v", ErrWire, err)
	}
	if int64(nClocks)*8 > int64(rd.Len()) {
		return nil, fmt.Errorf("%w: clock count %d exceeds payload", ErrWire, nClocks)
	}
	for i := uint32(0); i < nClocks; i++ {
		c, err := readF64("group clock")
		if err != nil {
			return nil, err
		}
		rep.GroupClocks = append(rep.GroupClocks, c)
	}
	var nRecs uint32
	if err := binary.Read(rd, binary.BigEndian, &nRecs); err != nil {
		return nil, fmt.Errorf("%w: record count: %v", ErrWire, err)
	}
	if int64(nRecs) > int64(rd.Len()) { // each record needs >= 11 bytes
		return nil, fmt.Errorf("%w: record count %d exceeds payload", ErrWire, nRecs)
	}
	prevID := ""
	for i := uint32(0); i < nRecs; i++ {
		var rec RouterRecord
		id, err := readBytes(rd, "router id")
		if err != nil {
			return nil, err
		}
		rec.ID = string(id)
		if i > 0 && rec.ID <= prevID {
			return nil, fmt.Errorf("%w: record %q out of order", ErrWire, rec.ID)
		}
		prevID = rec.ID
		if rec.Wave, err = rd.ReadByte(); err != nil {
			return nil, fmt.Errorf("%w: record wave: %v", ErrWire, err)
		}
		st, err := rd.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: record state: %v", ErrWire, err)
		}
		if int(st) >= rollout.NumStates {
			return nil, fmt.Errorf("%w: record state %d out of range", ErrWire, st)
		}
		rec.State = rollout.State(st)
		if rec.Byzantine, err = readBool("byzantine"); err != nil {
			return nil, err
		}
		if err := binary.Read(rd, binary.BigEndian, &rec.Attempts); err != nil {
			return nil, fmt.Errorf("%w: record attempts: %v", ErrWire, err)
		}
		lastErr, err := readBytes(rd, "last error")
		if err != nil {
			return nil, err
		}
		rec.LastErr = string(lastErr)
		rep.Routers = append(rep.Routers, rec)
	}
	for _, f := range []*uint64{&rep.Probe.Processed, &rep.Probe.Alarms, &rep.Probe.Faults, &rep.TotalAttempts} {
		if err := binary.Read(rd, binary.BigEndian, f); err != nil {
			return nil, fmt.Errorf("%w: totals: %v", ErrWire, err)
		}
	}
	if rd.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing report bytes", ErrWire, rd.Len())
	}
	return rep, nil
}
