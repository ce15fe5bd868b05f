package main

import (
	"time"

	"sdmmon/internal/shard"
)

// windowStat is one measured window of the closed loop.
type windowStat struct {
	wall    time.Duration
	settled uint64
	cpu     time.Duration
	span    int // the window's span in a traced window, else -1
}

func (w windowStat) pktsPerSec() float64 { return float64(w.settled) / w.wall.Seconds() }

func (w windowStat) cpuNsPerPkt() float64 { return float64(w.cpu.Nanoseconds()) / float64(w.settled) }

// driveResult is what one closed-loop run observed.
type driveResult struct {
	windows []windowStat
	// submitted counts packets handed to SubmitBatch; sent[c] counts how
	// often pool chunk c was, which is what the expected outcome is
	// summed over.
	submitted uint64
	sent      []uint64
	final     shard.PlaneStats
}

func settled(st shard.PlaneStats) uint64 {
	return st.Forwarded + st.AppDrops + st.Rejected + st.TailDrops + st.Starved
}

// drive is the load generator: one goroutine submitting the pool in chunks
// of 256 through SubmitBatch, cycling through it, as a closed loop with a
// window. When the packets outstanding in the plane (arrived minus settled,
// from Plane.Stats) would exceed maxOutstanding, it sleeps 50µs instead.
// After the warm-up it measures one window per entry of traced; a traced
// window records spans around every submit, poll and sleep. The fixture is
// closed (its backlog drained) before drive returns.
func drive(fx *fixture, p *pool, warm, win time.Duration, traced []bool, tr *tracer) driveResult {
	plane := fx.plane
	nchunks := len(p.pkts) / chunk
	res := driveResult{sent: make([]uint64, nchunks)}
	next := 0
	w := -1 // the warm-up
	var cur windowStat
	var cpu0 time.Duration
	var settled0 uint64
	winStart := time.Now()
	phaseEnd := winStart.Add(warm)
	var t *tracer // the tracer while the current window records spans
	for {
		now := time.Now()
		if !now.Before(phaseEnd) {
			st := plane.Stats()
			if w >= 0 {
				cur.wall = now.Sub(winStart)
				cur.settled = settled(st) - settled0
				cur.cpu = processCPU() - cpu0
				t.end(cur.span, int(cur.settled))
				res.windows = append(res.windows, cur)
			}
			w++
			if w == len(traced) {
				break
			}
			cur = windowStat{span: -1}
			t = nil
			if traced[w] {
				t = tr
				cur.span = t.begin("load.window", -1)
			}
			settled0, cpu0 = settled(st), processCPU()
			winStart, phaseEnd = now, now.Add(win)
			continue
		}
		s := t.begin("load.poll", cur.span)
		st := plane.Stats()
		t.end(s, 1)
		if st.Backlog+chunk > maxOutstanding {
			s = t.begin("load.sleep", cur.span)
			time.Sleep(50 * time.Microsecond)
			t.end(s, 1)
			continue
		}
		s = t.begin("shard.submit", cur.span)
		plane.SubmitBatch(p.pkts[next*chunk : (next+1)*chunk])
		t.end(s, chunk)
		res.submitted += chunk
		res.sent[next]++
		next = (next + 1) % nchunks
	}
	fx.close()
	res.final = plane.Stats()
	return res
}

// failures counts every way a run can be wrong. Each count is in packets,
// except Unconserved, which counts violated conservation invariants.
type failures struct {
	TailDrops     uint64 `json:"tail_drops"`
	Starved       uint64 `json:"starved"`
	Rejected      uint64 `json:"rejected"`
	WrongVerdicts uint64 `json:"wrong_verdicts"`
	MissedAlarms  uint64 `json:"missed_alarms"`
	Hijacks       uint64 `json:"hijacks"`
	Unconserved   uint64 `json:"unconserved"`
	PinMismatches uint64 `json:"pin_mismatches"`
}

func (f failures) total() uint64 {
	return f.TailDrops + f.Starved + f.Rejected + f.WrongVerdicts + f.MissedAlarms +
		f.Hijacks + f.Unconserved + f.PinMismatches
}

func (f *failures) add(g failures) {
	f.TailDrops += g.TailDrops
	f.Starved += g.Starved
	f.Rejected += g.Rejected
	f.WrongVerdicts += g.WrongVerdicts
	f.MissedAlarms += g.MissedAlarms
	f.Hijacks += g.Hijacks
	f.Unconserved += g.Unconserved
	f.PinMismatches += g.PinMismatches
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// check holds a closed plane's accounting against the oracle: per tenant,
// forwarded packets and alarms must equal what the oracle expects of the
// packets submitted, and every conservation invariant must hold with no
// backlog, tail drop, starved or rejected packet.
func (r driveResult) check(p *pool, lanes int) failures {
	fwd := make([]uint64, lanes)
	alarms := make([]uint64, lanes)
	for c, n := range r.sent {
		if n == 0 {
			continue
		}
		for i := c * chunk; i < (c+1)*chunk; i++ {
			if p.fwd[i] {
				fwd[p.lane[i]] += n
			}
			if p.alarm[i] {
				alarms[p.lane[i]] += n
			}
		}
	}
	st := r.final
	f := failures{TailDrops: st.TailDrops, Starved: st.Starved, Rejected: st.Rejected}
	if !st.Conserved() || st.Backlog != 0 || st.Arrived != r.submitted {
		f.Unconserved++
	}
	for t, ts := range st.Tenants {
		if !ts.Conserved() {
			f.Unconserved++
		}
		f.WrongVerdicts += absDiff(ts.Forwarded, fwd[t])
		f.MissedAlarms += absDiff(ts.Alarms, alarms[t])
	}
	return f
}
