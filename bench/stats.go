package main

import (
	"math"
	"sort"
	"time"
)

// summary is how every metric is reported: the value the metric takes,
// and the median, quartiles, extremes and sample count N of the samples it
// was taken from.
type summary struct {
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// summarize reduces samples to a summary whose value is their median.
// Quartiles follow Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), so spreads read the same here as in any script that re-derives
// them from the raw runs.
func summarize(unit string, xs []float64) summary {
	s := summary{Unit: unit, N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	s.Min, s.Max = v[0], v[len(v)-1]
	s.Median = median(v)
	s.Value = s.Median
	s.Q1, s.Q3 = s.Median, s.Median
	if len(v) >= 2 {
		q := quartiles(v)
		s.Q1, s.Q3 = q[0], q[2]
	}
	return s
}

// unhalved summarizes per-window (or per-span) samples of a rate, higher
// is better, reporting their nearest-rank 90th percentile (with higher
// false, a cost per item: the 10th). Another tenant of the host halves a
// CPU's speed for seconds at a time; the 90th percentile of many short
// windows reads the speed the plane has when that does not happen, as long
// as a tenth of the windows escape it, where the median moves with the
// share of time it happened. A run has enough windows for ten of them to
// lie beyond.
func unhalved(unit string, xs []float64, higher bool) summary {
	s := summarize(unit, xs)
	if len(xs) == 0 {
		return s
	}
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	p := 10.0
	if higher {
		p = 90
	}
	s.Value = nearestRank(v, p)
	return s
}

// one is the summary of a single measurement.
func one(unit string, x float64) summary { return summarize(unit, []float64{x}) }

// median of sorted values.
func median(v []float64) float64 {
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// quartiles of sorted values (len >= 2), exclusive method.
func quartiles(v []float64) [3]float64 {
	var out [3]float64
	n := len(v)
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		out[i-1] = (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return out
}

// nearestRank is the nearest-rank p-th percentile of sorted values: the
// smallest sample with at least p% of the samples at or below it.
func nearestRank(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return v[rankIndex(len(v), p)]
}

func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// samplesFor is the fewest samples that leave at least ten beyond the
// nearest-rank p-th percentile: the rule for the highest percentile a
// sample may be reported at.
func samplesFor(p float64) int {
	n := 1
	for n-1-rankIndex(n, p) < 10 {
		n++
	}
	return n
}

// span is one timed interval of the traced run. Spans nest through parent
// (an index into the tracer's slice, -1 for a root); items is the number of
// packets, lookups or batches the span covered.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Items  int    `json:"items"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths call the same methods.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(time.Since(t.base)), End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(i, items int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.base))
	t.spans[i].Items = items
}

// selfTotal sums the self time and items of every closed span with a name:
// a layer's cost is what its spans spent outside any span nested in them.
func (t *tracer) selfTotal(name string) (ns int64, items int) {
	if t == nil {
		return 0, 0
	}
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			ns += self[i]
			items += s.Items
		}
	}
	return ns, items
}

// selfPerItem lists, for every closed span with a name that covered items,
// its self time (ns) per item. A layer's cost per item is read from these
// as the end-to-end costs are read from windows (see unhalved), where a
// total over the spans would mix in however long the host was slowed.
func (t *tracer) selfPerItem(name string) []float64 {
	if t == nil {
		return nil
	}
	self := selfTimes(t.spans)
	var out []float64
	for i, s := range t.spans {
		if s.Name == name && s.End >= 0 && s.Items > 0 {
			out = append(out, float64(self[i])/float64(s.Items))
		}
	}
	return out
}

// durations lists the durations (ns) of every closed span with a name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfTimes gives each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once,
// and a child reaching outside its parent is clipped to it).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[i] {
			cs := spans[c]
			if cs.End < 0 {
				continue
			}
			a, b := max(cs.Start, s.Start), min(cs.End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered := int64(0)
		curA, curB := int64(0), int64(-1)
		for _, v := range ivs {
			if v.a > curB {
				if curB > curA {
					covered += curB - curA
				}
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		if curB > curA {
			covered += curB - curA
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}
