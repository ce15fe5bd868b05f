package cpu

import (
	"fmt"
	"strings"

	"sdmmon/internal/isa"
)

// Tracer is a ring-buffer execution tracer: it keeps the last N retired
// instructions with disassembly — the forensic view of what a core was
// doing when an alarm fired. It records either as a TraceFunc chained in
// front of another trace consumer, or as the ring of a core's monitor port
// (CPU.Attach).
type Tracer struct {
	ring  []TraceEntry
	next  int
	count uint64
	inner TraceFunc // optional downstream consumer (the monitor)
}

// TraceEntry is one retired instruction.
type TraceEntry struct {
	Seq uint64
	PC  uint32
	W   isa.Word
	// Rejected marks the instruction on which the downstream consumer
	// (monitor) asserted the alarm.
	Rejected bool
}

// NewTracer builds a tracer keeping the last n instructions, forwarding
// each observation to inner (may be nil).
func NewTracer(n int, inner TraceFunc) *Tracer {
	if n < 1 {
		n = 1
	}
	return &Tracer{ring: make([]TraceEntry, 0, n), inner: inner}
}

// Observe implements TraceFunc.
func (t *Tracer) Observe(pc uint32, w isa.Word) bool {
	ok := true
	if t.inner != nil {
		ok = t.inner(pc, w)
	}
	t.record(pc, w, !ok)
	return ok
}

// record appends one retired instruction to the ring; rejected marks the
// one the monitor alarmed on.
func (t *Tracer) record(pc uint32, w isa.Word, rejected bool) {
	e := TraceEntry{Seq: t.count, PC: pc, W: w, Rejected: rejected}
	t.count++
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, e)
	} else {
		t.ring[t.next] = e
	}
	t.next = (t.next + 1) % cap(t.ring)
}

// Reset clears the ring and the retired counter. The NP's recovery path
// wipes the forensic trace when the core takes its next packet after an
// alarm — the dump window is between the alarm and that packet.
func (t *Tracer) Reset() {
	t.ring = t.ring[:0]
	t.next = 0
	t.count = 0
}

// Retired returns the total number of instructions observed.
func (t *Tracer) Retired() uint64 { return t.count }

// Last returns up to n most recent entries, oldest first.
func (t *Tracer) Last(n int) []TraceEntry {
	size := len(t.ring)
	if n > size {
		n = size
	}
	if n <= 0 {
		return nil
	}
	out := make([]TraceEntry, 0, n)
	start := (t.next - n + size) % size
	if size < cap(t.ring) {
		// Ring not yet full: entries are [0, size) in order.
		start = size - n
		for i := start; i < size; i++ {
			out = append(out, t.ring[i])
		}
		return out
	}
	for i := 0; i < n; i++ {
		out = append(out, t.ring[(start+i)%size])
	}
	return out
}

// Dump renders the most recent n entries with disassembly; the alarm
// instruction (if present) is flagged.
func (t *Tracer) Dump(n int) string {
	var sb strings.Builder
	for _, e := range t.Last(n) {
		flag := "   "
		if e.Rejected {
			flag = "!! "
		}
		fmt.Fprintf(&sb, "%s%8d  %06x  %08x  %s\n",
			flag, e.Seq, e.PC, uint32(e.W), isa.Disasm(e.PC, e.W))
	}
	return sb.String()
}
