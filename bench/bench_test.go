package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestPoolIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads() {
		a, b := w.makePool(7, 1000), w.makePool(7, 1000)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two pools from seed 7 differ", w.name)
		}
		if c := w.makePool(8, 1000); reflect.DeepEqual(a.pkts, c.pkts) {
			t.Errorf("%s: seeds 7 and 8 give the same pool", w.name)
		}
	}
}

func TestPoolShape(t *testing.T) {
	for _, w := range workloads() {
		p := w.makePool(3, 1000)
		for i, pkt := range p.pkts {
			switch w.name {
			case "fwd-min":
				if len(pkt) != 28 {
					t.Fatalf("fwd-min packet %d is %d bytes, want 28", i, len(pkt))
				}
			case "attack-mix":
				if p.attack[i] != (i%attackEach == attackEach-1) {
					t.Fatalf("attack-mix packet %d: attack=%v", i, p.attack[i])
				}
			case "tenant-split":
				if p.lane[i] != 1-i%2 {
					t.Fatalf("tenant-split packet %d on lane %d, want %d", i, p.lane[i], 1-i%2)
				}
			}
		}
	}
}

// TestOracle pins the reference NP's verdicts: every benign packet of
// every workload is forwarded without an alarm, and every attack raises
// an alarm and is dropped.
func TestOracle(t *testing.T) {
	for _, w := range workloads() {
		p := w.makePool(5, 500)
		if err := w.oracle(p); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for i := range p.pkts {
			if p.fwd[i] == p.attack[i] || p.alarm[i] != p.attack[i] {
				t.Fatalf("%s: packet %d (attack=%v): fwd=%v alarm=%v", w.name, i, p.attack[i], p.fwd[i], p.alarm[i])
			}
		}
	}
}

// TestRecordAgreesWithOracle runs the monitored-core recording over an
// oracle-checked pool: no failure, and the simulated statistics match the
// pinned values.
func TestRecordAgreesWithOracle(t *testing.T) {
	for _, w := range workloads() {
		p := w.makePool(11, recorded)
		if err := w.oracle(p); err != nil {
			t.Fatal(err)
		}
		sim, streams, f, err := w.record(p, true)
		if err != nil {
			t.Fatal(err)
		}
		if f.total() != 0 {
			t.Errorf("%s: record found failures %+v", w.name, f)
		}
		if n, err := pinMismatches(w.name, sim); err != nil || n != 0 {
			t.Errorf("%s: %d pinned statistics differ (%+v), err %v", w.name, n, sim, err)
		}
		steps := 0
		for _, st := range streams {
			steps += len(st.words)
		}
		if want := sim.InstrPerPkt * recorded; float64(steps) < want {
			t.Errorf("%s: recorded %d monitor steps, fewer than %g retired instructions", w.name, steps, want)
		}
	}
	sim := simStats{InstrPerPkt: 34, CyclesPerPkt: 37}
	if n, _ := pinMismatches("fwd-min", sim); n != 1 {
		t.Errorf("one changed statistic gives %d mismatches, want 1", n)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},  // overlaps a: counted once
		{Name: "c", Parent: 0, Start: 90, End: 120}, // reaches past the root: clipped
		{Name: "d", Parent: 2, Start: 25, End: 35},  // b's child, not the root's
		{Name: "open", Parent: 0, Start: 60, End: -1},
	}
	want := []int64{100 - 40 - 10, 20, 30 - 10, 30, 10, 0}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	tr := &tracer{spans: spans}
	if ns, items := tr.selfTotal("b"); ns != 20 || items != 0 {
		t.Errorf("selfTotal(b) = %d, %d", ns, items)
	}
}

func TestSummaryMatchesPythonQuantiles(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	s := summarize("u", xs)
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.Min != 1 || s.Max != 10 || s.N != 10 {
		t.Errorf("summary = %+v", s)
	}
	if s := summarize("u", []float64{4}); s.Median != 4 || s.Q1 != 4 || s.Q3 != 4 {
		t.Errorf("one sample: %+v", s)
	}
}

func TestNearestRankAndSupport(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if p := nearestRank(v, 50); p != 50 {
		t.Errorf("p50 = %g", p)
	}
	if p := nearestRank(v, 99); p != 99 {
		t.Errorf("p99 = %g", p)
	}
	if p := nearestRank(v, 100); p != 100 {
		t.Errorf("p100 = %g", p)
	}
	for p, want := range map[float64]int{99: 1000, 90: 100, 50: 20} {
		if got := samplesFor(p); got != want {
			t.Errorf("samplesFor(p%g) = %d, want %d", p, got, want)
		}
		// The rule: want samples leave ten beyond the percentile, want-1
		// leave nine.
		if beyond := want - 1 - rankIndex(want, p); beyond != 10 {
			t.Errorf("p%g of %d samples has %d beyond it", p, want, beyond)
		}
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	for _, c := range []struct {
		name   string
		b      []float64
		higher bool
		bound  float64
		want   string
	}{
		{"faster", shift(base, 10), true, 0.1, "improved"},
		{"slower", shift(base, -20), true, 0.1, "worse"},
		{"same", base, true, 0.1, "unchanged"},
		{"noisy", []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, true, 0.1, "unresolved"},
		{"lower is better", shift(base, -10), false, 0.1, "improved"},
		{"zero bound", shift(base, 0.5), false, 0, "worse"},
	} {
		if _, got := judge(base, c.b, c.higher, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the printed metrics, their units
// and the workloads in step with the benchmark definition.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside bench/:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }               `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads() {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, bench has %v", names, want)
	}
	check := func(kind string, defs []metricDef, got []metricDef) {
		if !slices.Equal(defs, got) {
			t.Errorf("%s: BENCHMARK.json has %v, bench prints %v", kind, got, defs)
		}
	}
	var e2e, layer []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, layer)
}

// TestMain lets the test binary stand in for the benchmark's: under
// -workload all, benchMain runs each workload by executing itself.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_AS_MAIN") == "1" {
		main()
	}
	os.Exit(m.Run())
}

// TestSmoke runs all four workloads, each in a process of its own, with
// 200 ms windows: every metric is printed, nothing fails, and the spans of
// each workload are written.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run takes seconds")
	}
	t.Setenv("BENCH_AS_MAIN", "1")
	dir := t.TempDir()
	out := filepath.Join(dir, "runs.jsonl")
	var buf bytes.Buffer
	code := benchMain([]string{"-workload", "all", "-seed", "3", "-smoke", "-out", out, "-trace", dir}, &buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res lastLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line: %v\n%s", err, buf.String())
	}
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("exit %d, result %+v\n%s", code, res, buf.String())
	}
	recs, err := readRecords(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads() {
		if len(recs[w.name]) != 1 || recs[w.name][0].FailFrac != 0 {
			t.Errorf("%s: records %+v", w.name, recs[w.name])
		}
		for _, d := range slices.Concat(endToEnd, perLayer) {
			m, ok := res.Metrics[w.name+"."+d.name]
			if !ok || m.Unit != d.unit {
				t.Errorf("%s: metric %s missing or malformed: %+v", w.name, d.name, m)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, w.name+".spans.json")); err != nil {
			t.Errorf("%s: spans not written: %v", w.name, err)
		}
	}
}
