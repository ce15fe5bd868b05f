package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// boundSpec is one end-to-end metric of BENCHMARK.json.
type boundSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// compareMain compares two sets of runs (JSON-lines files written with
// -out; the i-th record of a workload in A is paired with the i-th in B),
// with the bounds of the BENCHMARK.json in the working directory. For each
// workload and end-to-end metric, plus fail_frac with bound 0, it prints
// both medians and quartiles, the share of pairs B won and a verdict. It
// exits 1 when any verdict is "worse".
func compareMain(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.jsonl B.jsonl")
		return 2
	}
	var spec struct {
		EndToEnd []boundSpec `json:"end_to_end"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	metrics := append(spec.EndToEnd, boundSpec{Name: "fail_frac", Better: "lower"})
	a, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	b, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}

	code := 0
	fmt.Fprintf(stdout, "%-13s %-15s %-36s %-36s %6s  %s\n", "workload", "metric",
		"A median [q1, q3] n", "B median [q1, q3] n", "B won", "verdict")
	for _, w := range workloads() {
		ra, rb := a[w.name], b[w.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range metrics {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			won, verdict := judge(va, vb, m.Better == "higher", m.Bound)
			if verdict == "worse" {
				code = 1
			}
			sa, sb := summarize("", va), summarize("", vb)
			fmt.Fprintf(stdout, "%-13s %-15s %-36s %-36s %5.0f%%  %s\n", w.name, m.Name,
				fmt.Sprintf("%.6g [%.6g, %.6g] %d", sa.Median, sa.Q1, sa.Q3, sa.N),
				fmt.Sprintf("%.6g [%.6g, %.6g] %d", sb.Median, sb.Q1, sb.Q3, sb.N),
				100*won, verdict)
		}
	}
	return code
}

// readRecords reads a JSON-lines file of records, grouped by workload in
// file order.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, sc.Err()
}

// values lists one metric's per-run value over a set of records.
func values(recs []record, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if metric == "fail_frac" {
			out = append(out, r.FailFrac)
		} else if s, ok := r.Metrics[metric]; ok {
			out = append(out, s.Value)
		}
	}
	return out
}

// judge compares B's runs with A's. won is the share of pairs (A[i], B[i])
// B won, ties counting for neither side. The verdict follows the rules for
// claiming a change:
//   - improved: B won at least nine tenths of the pairs and the medians
//     differ by more than A's spread (the distance between its quartiles);
//   - worse: B's median is worse than A's by more than bound × A's median
//     (for a bound of 0, by anything);
//   - unresolved: either side's spread, as a share of its median, is wider
//     than the bound, unless every run of B beats every run of A;
//   - unchanged: otherwise.
func judge(a, b []float64, higherBetter bool, bound float64) (won float64, verdict string) {
	sign := -1.0
	if higherBetter {
		sign = 1
	}
	pairs := min(len(a), len(b))
	wins := 0
	for i := 0; i < pairs; i++ {
		if sign*(b[i]-a[i]) > 0 {
			wins++
		}
	}
	won = float64(wins) / float64(pairs)
	sa, sb := summarize("", a), summarize("", b)
	gain := sign * (sb.Median - sa.Median)
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case won >= 0.9 && gain > sa.Q3-sa.Q1:
		return won, "improved"
	case -gain > bound*math.Abs(sa.Median):
		return won, "worse"
	case (relSpread(sa) > bound || relSpread(sb) > bound) && !allBetter:
		return won, "unresolved"
	}
	return won, "unchanged"
}

// relSpread is a summary's interquartile distance as a share of its median.
func relSpread(s summary) float64 {
	d := s.Q3 - s.Q1
	if d == 0 {
		return 0
	}
	if s.Median == 0 {
		return math.Inf(1)
	}
	return d / math.Abs(s.Median)
}
