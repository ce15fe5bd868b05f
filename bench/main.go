// Command bench is the benchmark of the monitored plane: a closed-loop
// load generator offers generated traffic to a shard.Plane in front of one 2-core
// NP and measures it end to end, and a separate traced run replays the
// same traffic through each layer (interpreter, instruction hash, monitor,
// batch dispatch, ingress) to give every layer its own number. Every
// verdict is held against a reference NP. See README.md.
//
//	bash bench/run.sh -workload all -seed 1            # both runs, every workload
//	bash bench/run.sh -workload fwd-min -trace 0       # end-to-end run only
//	bash bench/run.sh -workload fwd-min -trace 1       # traced run only
//	bash bench/run.sh -trace spans/                    # both, spans written to spans/
//	bash bench/run.sh compare A.jsonl B.jsonl          # compare two sets of runs
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics of the runs made, each named after its workload
// under -workload all. The exit code is 1 when any output was wrong and 2
// when the benchmark could not run.
package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// metricDef is one reported metric; the lists match BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"pkts_per_s", "1/s"},
	{"cpu_ns_per_pkt", "ns"},
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"shard.submit_ns_per_pkt", "ns"},
	{"shard.batch_fill", "ratio"},
	{"shard.max_depth", "count"},
	{"shard.driver_wait_frac", "frac"},
	{"npu.drain_us_p50", "us"},
	{"npu.drain_us_p99", "us"},
	{"npu.dispatch_ns_per_pkt", "ns"},
	{"npu.allocs_per_batch", "count"},
	{"cpu.ns_per_pkt", "ns"},
	{"cpu.ns_per_instr", "ns"},
	{"cpu.instr_per_pkt", "count"},
	{"sim.cycles_per_pkt", "cycles"},
	{"monitor.ns_per_step", "ns"},
	{"monitor.self_ns_per_step", "ns"},
	{"monitor.max_positions", "count"},
	{"monitor.alarms_per_kpkt", "count"},
	{"mhash.ns_per_lookup", "ns"},
	{"mhash.hit_rate", "ratio"},
	{"mhash.lookups_per_pkt", "count"},
	{"seccrypto.build_ms", "ms"},
	{"core.install_ms", "ms"},
	{"npu.install_ms", "ms"},
	{"tenant.install_ms", "ms"},
	{"budget.coverage", "ratio"},
	{"trace.overhead_frac", "frac"},
}

//go:embed pinned.json
var pinnedJSON []byte

// pinMismatches counts the simulated statistics that differ from the
// workload's pinned values.
func pinMismatches(name string, got simStats) (uint64, error) {
	var pins map[string]simStats
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		return 0, fmt.Errorf("pinned.json: %w", err)
	}
	want, ok := pins[name]
	if !ok {
		return 3, nil
	}
	n := uint64(0)
	for _, d := range [][2]float64{
		{got.InstrPerPkt, want.InstrPerPkt},
		{got.CyclesPerPkt, want.CyclesPerPkt},
		{got.AlarmsPerKpkt, want.AlarmsPerKpkt},
	} {
		if d[0] != d[1] {
			n++
		}
	}
	return n, nil
}

// schedule is how long each part of a run lasts.
type schedule struct {
	// planes are set up one after another by the end-to-end run, and each
	// carries traffic for warm + windows × win; the first set-up is not
	// timed.
	planes, windows int
	warm, win       time.Duration
	// pairs are the traced run's untraced/traced window pairs, after a
	// warm-up of traceWarm.
	pairs      int
	traceWarm  time.Duration
	phase      time.Duration // each layer replay, in replayRounds turns
	minBatches int           // npu drain replay
	layerReps  int           // timings of each set-up layer
}

// newSchedule fits a run into seconds of traffic. Windows are 100 ms: on a
// shared virtual machine another tenant halves a CPU's speed in bursts from
// a few hundred milliseconds to seconds long, and short windows let the
// end-to-end rates (see unhalved) read the speed between the bursts. With
// 16 s a run has 144 windows, enough for ten to lie beyond the 90th
// percentile. Planes also differ by where their memory landed, so the
// end-to-end run drives 12 planes in turn instead of betting on one, and
// times set-up on 11 of them, spread over the run. The drain replay runs
// enough batches for its p99 to have ten samples beyond it. Smoke runs
// (tests) drive 2 planes for one 200 ms window each.
func newSchedule(seconds float64, smoke bool) schedule {
	if smoke {
		ms := 200 * time.Millisecond
		return schedule{planes: 2, windows: 1, warm: ms / 2, win: ms, pairs: 1, traceWarm: ms / 2,
			phase: 20 * time.Millisecond, minBatches: 10, layerReps: 1}
	}
	const planes, win = 12, 100 * time.Millisecond
	total := time.Duration(seconds * float64(time.Second))
	return schedule{
		planes: planes, windows: max(int(total/planes/win)-1, 1), warm: win, win: win,
		pairs: max(int((total-time.Second)/(2*win)), 1), traceWarm: time.Second,
		phase: time.Second, minBatches: samplesFor(99), layerReps: planes - 1,
	}
}

type options struct {
	seed        int64
	e2e, traced bool
	spanDir     string
	sched       schedule
}

// record is everything one workload run measured. Runs append records to
// a JSON-lines file with -out; compare reads those files.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Host      hostInfo           `json:"host"`
	Attempted uint64             `json:"attempted"`
	Failures  failures           `json:"failures"`
	FailFrac  float64            `json:"fail_frac"`
	Sim       simStats           `json:"sim"`
	Metrics   map[string]summary `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

// benchMain runs one workload, or with -workload all each workload in a
// process of its own. BENCHMARK.json's runs pass -seconds (its
// run_seconds) and -trace 0 or 1; -trace DIR is for reading the spans.
func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed of the generated traffic")
	seconds := fs.Float64("seconds", 16, "length of the measured part of each run")
	trace := fs.String("trace", "", "0: end-to-end run only; 1: traced run only; "+
		"empty: both; anything else: both, writing the spans into that directory")
	smoke := fs.Bool("smoke", false, "200 ms windows and short replays, for tests")
	out := fs.String("out", "", "append the workload's record as a JSON line to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *name == "all" {
		return runEach(args, stdout)
	}
	// The plane runs on one CPU. On a shared 2-vCPU virtual machine the
	// vCPUs are, for seconds to minutes at a time, hyperthreads of one
	// physical core, or share theirs with another tenant's busy thread; a
	// plane on both then runs at the speed of one, and in interleaved runs
	// the spread over ten seeds of the median window rate was 14-24% on
	// two CPUs against 9-15% on one. The NP's two cores share the CPU, so
	// the benchmark measures what each packet costs, not how the batch
	// engine spreads packets over CPUs.
	runtime.GOMAXPROCS(1)
	o := options{seed: *seed, e2e: true, traced: true, sched: newSchedule(*seconds, *smoke)}
	switch *trace {
	case "0":
		o.traced = false
	case "1":
		o.e2e = false
	case "":
	default:
		o.spanDir = *trace
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	pv, err := newProvisioner()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	rec, tr, err := w.run(pv, o)
	if err == nil && o.spanDir != "" {
		err = writeSpans(o.spanDir, w.name, tr)
	}
	if err == nil && *out != "" {
		err = appendRecord(*out, rec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 2
	}
	printRecord(stdout, rec)
	return printResult(stdout, result(rec, o))
}

// runEach runs every workload in a process of its own and merges their
// last lines, naming each metric after its workload. Each workload then
// starts from the state it has when run alone: what an earlier workload
// left in the heap moves where the plane's memory lands, and with it the
// plane's speed (one recording pass run first made fwd-min 15% slower).
func runEach(args []string, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	res := lastLine{Metrics: map[string]metricValue{}}
	for _, w := range workloads() {
		var buf bytes.Buffer
		cmd := exec.Command(exe, append(slices.Clone(args), "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = &buf, os.Stderr
		var exit *exec.ExitError
		if err := cmd.Run(); err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 2
		}
		text := strings.TrimSuffix(buf.String(), "\n")
		i := strings.LastIndexByte(text, '\n')
		var r lastLine
		if err := json.Unmarshal([]byte(text[i+1:]), &r); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: last line: %v\n", w.name, err)
			return 2
		}
		fmt.Fprint(stdout, text[:i+1])
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for k, v := range r.Metrics {
			res.Metrics[w.name+"."+k] = v
		}
	}
	res.Correct = res.Failed == 0
	return printResult(stdout, res)
}

// printResult prints the last line and gives the exit code: 1 when any
// output was wrong.
func printResult(stdout io.Writer, res lastLine) int {
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// run measures one workload: the oracle and the pinned statistics, then
// the end-to-end run and the traced run. Every verdict of every part is
// checked.
func (w *workload) run(pv *provisioner, o options) (record, *tracer, error) {
	rec := record{Workload: w.name, Seed: o.seed, Host: newHostInfo(), Metrics: map[string]summary{}}
	steal0, total0, ticks := cpuTicks()
	p := w.makePool(o.seed, poolSize)
	if err := w.oracle(p); err != nil {
		return rec, nil, err
	}
	sim, streams, f, err := w.record(p, o.traced)
	if err != nil {
		return rec, nil, err
	}
	rec.Sim = sim
	rec.Attempted += uint64(min(recorded, len(p.pkts)))
	rec.Failures.add(f)
	if rec.Failures.PinMismatches, err = pinMismatches(w.name, sim); err != nil {
		return rec, nil, err
	}
	if o.e2e {
		if err := w.endToEnd(pv, p, o.sched, &rec); err != nil {
			return rec, nil, err
		}
	}
	var tr *tracer
	if o.traced {
		tr = newTracer()
		if err := w.traced(pv, p, streams, o.sched, tr, &rec); err != nil {
			return rec, nil, err
		}
	}
	if steal1, total1, ok := cpuTicks(); ticks && ok && total1 > total0 {
		rec.Host.StealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	rec.FailFrac = float64(rec.Failures.total()) / float64(rec.Attempted)
	return rec, tr, nil
}

// endToEnd sets up sc.planes planes one after another, timing each set-up
// but the first (which pays the process's lazy initialisation once), and
// drives each untraced; the windows of all planes are pooled. Every set-up
// and every drive starts from a collected heap. A plane's peak resident set
// is taken over its drive alone: the RSA key generation that provisions
// each device leaves a varying amount of garbage, which would otherwise
// set the peak.
func (w *workload) endToEnd(pv *provisioner, p *pool, sc schedule, rec *record) error {
	var setups, pps, cpu, rss []float64
	for i := 0; i < sc.planes; i++ {
		b, err := w.blank(pv)
		if err != nil {
			return err
		}
		fx, d, err := w.build(pv, b)
		if err != nil {
			return err
		}
		if i > 0 {
			setups = append(setups, d.Seconds())
		}
		if err := resetPeakRSS(); err != nil {
			return err
		}
		dr := drive(fx, p, sc.warm, sc.win, make([]bool, sc.windows), nil)
		peak, err := peakRSSMB()
		if err != nil {
			return err
		}
		rss = append(rss, peak)
		rec.Failures.add(dr.check(p, len(w.lanes)))
		rec.Attempted += dr.submitted
		for _, win := range dr.windows {
			pps = append(pps, win.pktsPerSec())
			cpu = append(cpu, win.cpuNsPerPkt())
		}
	}
	rec.Metrics["pkts_per_s"] = unhalved("1/s", pps, true)
	rec.Metrics["cpu_ns_per_pkt"] = unhalved("ns", cpu, false)
	rec.Metrics["setup_s"] = summarize("s", setups)
	rec.Metrics["max_rss_mb"] = summarize("MB", rss)
	return nil
}

// traced times each set-up layer, drives one plane in untraced/traced
// window pairs, and then replays the workload through each layer on that
// plane's NP.
func (w *workload) traced(pv *provisioner, p *pool, streams []stream, sc schedule, tr *tracer, rec *record) error {
	if err := w.setupLayers(pv, tr, sc.layerReps); err != nil {
		return err
	}
	b, err := w.blank(pv)
	if err != nil {
		return err
	}
	fx, _, err := w.build(pv, b)
	if err != nil {
		return err
	}
	runtime.GC()
	pattern := make([]bool, 2*sc.pairs)
	for i := range pattern {
		pattern[i] = i%2 == 1
	}
	dr := drive(fx, p, sc.traceWarm, sc.win, pattern, tr)
	rec.Failures.add(dr.check(p, len(w.lanes)))
	rec.Attempted += dr.submitted
	ls, err := w.replayLayers(fx.np, p, streams, tr, sc.phase, sc.minBatches)
	if err != nil {
		return err
	}
	rec.Failures.add(ls.fail)
	rec.Attempted += ls.replayed
	for k, v := range w.layerMetrics(tr, ls, dr, rec.Sim) {
		rec.Metrics[k] = v
	}
	return nil
}

// metricValue and lastLine are the benchmark's one-line result.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type lastLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is the last line: the value of every metric of the runs made.
func result(rec record, o options) lastLine {
	var defs []metricDef
	if o.e2e {
		defs = append(defs, endToEnd...)
	}
	if o.traced {
		defs = append(defs, perLayer...)
	}
	res := lastLine{Attempted: rec.Attempted, Failed: rec.Failures.total(), Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: rec.Metrics[d.name].Value, Unit: d.unit}
	}
	res.Correct = res.Failed == 0
	return res
}

func printRecord(w io.Writer, rec record) {
	h := rec.Host
	fmt.Fprintf(w, "== %s  seed %d  fail_frac %g  attempted %d  (%d CPUs, GOMAXPROCS %d, %s, steal %.1f%%)\n",
		rec.Workload, rec.Seed, rec.FailFrac, rec.Attempted, h.NProc, h.GOMAXPROCS, h.GoVersion, 100*h.StealFrac)
	if rec.Failures.total() > 0 {
		fmt.Fprintf(w, "   FAILED: %+v\n", rec.Failures)
	}
	fmt.Fprintf(w, "   %-26s %12s %12s %12s %12s %12s %12s %6s  %s\n", "metric", "value", "median", "q1", "q3", "min", "max", "N", "unit")
	for _, d := range slices.Concat(endToEnd, perLayer) {
		s, ok := rec.Metrics[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "   %-26s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %6d  %s\n",
			d.name, s.Value, s.Median, s.Q1, s.Q3, s.Min, s.Max, s.N, s.Unit)
	}
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSpans writes a workload's spans, in memory until now, to
// DIR/<workload>.spans.json.
func writeSpans(dir, name string, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".spans.json"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{name, tr.spans})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
