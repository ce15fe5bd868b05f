// Command npsim runs the multicore network-processor simulator under
// synthetic traffic with optional interleaved data-plane attacks, and
// reports throughput and detection statistics. It bypasses the secure
// installation path (use cmd/sdmmon for the full lifecycle).
//
//	npsim -app ipv4cm -cores 4 -packets 20000 -attacks 20 -monitors=true
//
// Telemetry: -metrics writes a snapshot of every counter/gauge/histogram on
// exit (Prometheus text for a .prom path, JSON otherwise), -trace writes the
// structured alarm/recovery/install event log as JSON lines, and -pprof
// serves net/http/pprof while the simulation runs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"

	"sdmmon/internal/apps"
	"sdmmon/internal/attack"
	"sdmmon/internal/mhash"
	"sdmmon/internal/monitor"
	"sdmmon/internal/npu"
	"sdmmon/internal/obs"
	"sdmmon/internal/packet"
)

func main() {
	appName := flag.String("app", "ipv4cm", "application (see sdmmon apps)")
	cores := flag.Int("cores", 4, "NP cores")
	packets := flag.Int("packets", 10000, "benign packets")
	attacks := flag.Int("attacks", 0, "interleaved attack packets")
	monitors := flag.Bool("monitors", true, "hardware monitors enabled")
	qdepth := flag.Int("qdepth", 0, "simulated output queue depth")
	optWords := flag.Int("optwords", 1, "IP option words in benign traffic")
	seed := flag.Int64("seed", 1, "seed for traffic and hash parameter")
	clockMHz := flag.Float64("clock", 100, "core clock in MHz for throughput reporting")
	forensic := flag.Int("forensic", 0, "forensic trace depth; dumps the instruction trace of the first alarm")
	bench := flag.Bool("bench", false, "regenerate the virtual-time model series (shard scaling, tenant isolation, fleet rollout, campaign detection) into -benchout")
	benchOut := flag.String("benchout", "BENCH_npu.json", "output file for -bench")
	faults := flag.String("faults", "", "fault-injection scenario: bitflip, hashflip, hang, spurious, graph, link, or all")
	rollout := flag.String("rollout", "", "live-upgrade scenario: clean, badcanary, lossy, or all")
	routers := flag.Int("routers", 4, "fleet size for -rollout and -fleet (the fleet drills enforce a minimum of 64)")
	fleetDrill := flag.String("fleet", "", "hierarchical control-plane drill: clean, partition, badwave, or all")
	load := flag.Bool("load", false, "run the sharded traffic plane under overload (see -shards)")
	shards := flag.Int("shards", 4, "line-card shards for -load")
	threatDrill := flag.String("threat", "", "graded threat-response drill: burst, ramp, slowdrip, or all (self-asserting, replayed twice)")
	campaignDrill := flag.String("campaign", "", "adversarial campaign drill: gadget, collision, slowdrip, noc, poison, or all (self-asserting; replayed twice through the wire codec, plus the fleet evasion drill with all)")
	tenantDrill := flag.Bool("tenant", false, "run the self-asserting two-tenant isolation drill (gadget + noc at one tenant; bystander byte-identical to a no-attack control)")
	incidentsOut := flag.String("incidents", "", "write captured incident records as JSON lines (with -threat)")
	metricsOut := &pathFlag{def: "npsim_metrics.json"}
	flag.Var(metricsOut, "metrics", "write a metrics snapshot on exit; bare -metrics selects npsim_metrics.json, -metrics=FILE a path (.prom = Prometheus text, otherwise JSON)")
	traceOut := flag.String("trace", "", "write the structured event trace as JSON lines on exit")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()
	if flag.NArg() > 0 {
		// npsim takes no positional arguments. Rejecting them loudly keeps
		// the pre-bool-or-path `-metrics FILE` spelling from silently
		// writing to the default path while FILE is ignored.
		fmt.Fprintf(os.Stderr, "npsim: unexpected argument %q (path-taking flags use -flag=value, e.g. -metrics=out.json)\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	var col *obs.Collector
	if metricsOut.path != "" || *traceOut != "" || *pprofAddr != "" {
		col = obs.New(obs.DefaultRingDepth)
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "npsim: pprof:", err)
			}
		}()
	}

	var err error
	switch {
	case *fleetDrill != "":
		err = runFleet(*fleetDrill, *routers, *seed)
	case *rollout != "":
		err = runRollout(*rollout, *routers, *cores, *seed, col)
	case *faults != "":
		err = runFaults(*faults, *appName, *cores, *seed, col)
	case *campaignDrill != "":
		err = runCampaign(*campaignDrill, *seed)
	case *threatDrill != "":
		err = runThreat(*threatDrill, *seed, *incidentsOut)
	case *tenantDrill:
		err = runTenantDrill(*seed)
	case *load:
		err = runLoad(*appName, *shards, *cores, *packets, *seed, *clockMHz, col)
	case *bench:
		err = runBench(*appName, *seed, *benchOut)
	default:
		err = run(*appName, *cores, *packets, *attacks, *monitors, *qdepth, *optWords, *seed, *clockMHz, *forensic, col)
	}
	// Telemetry is written even when the scenario failed: the snapshot of a
	// failing run is exactly what a post-mortem needs.
	if werr := writeTelemetry(col, metricsOut.path, *traceOut); werr != nil && err == nil {
		err = werr
	}
	if err != nil {
		var se *scenarioError
		if errors.As(err, &se) {
			fmt.Fprintf(os.Stderr, "npsim: FAIL mode=%s scenario=%s: %v\n", se.Mode, se.Scenario, se.Err)
		} else {
			fmt.Fprintln(os.Stderr, "npsim:", err)
		}
		os.Exit(1)
	}
}

// pathFlag is a bool-or-path flag: bare `-metrics` selects the default
// path, `-metrics=FILE` a caller-chosen one. Because the flag package
// treats bool-style flags as value-less, the FILE form must use `=` (a
// space-separated path would be read as a positional argument).
type pathFlag struct {
	path string
	def  string
}

func (f *pathFlag) String() string { return f.path }

func (f *pathFlag) Set(s string) error {
	switch s {
	case "true": // bare -metrics
		f.path = f.def
	case "false": // -metrics=false
		f.path = ""
	default:
		f.path = s
	}
	return nil
}

// IsBoolFlag lets the flag appear with no value.
func (f *pathFlag) IsBoolFlag() bool { return true }

// scenarioError is a structured scenario failure: which mode (faults or
// rollout) and which scenario failed, and why. main renders it as a single
// machine-greppable "npsim: FAIL mode=… scenario=…" line and exits non-zero.
type scenarioError struct {
	Mode     string
	Scenario string
	Err      error
}

func (e *scenarioError) Error() string {
	return fmt.Sprintf("%s scenario %q failed: %v", e.Mode, e.Scenario, e.Err)
}

func (e *scenarioError) Unwrap() error { return e.Err }

// writeTelemetry flushes the collector to the requested output files.
func writeTelemetry(col *obs.Collector, metricsPath, tracePath string) error {
	if col == nil {
		return nil
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		snap := col.Snapshot()
		if strings.HasSuffix(metricsPath, ".prom") {
			err = snap.WritePrometheus(f)
		} else {
			err = snap.WriteJSON(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing metrics to %s: %w", metricsPath, err)
		}
		fmt.Printf("wrote metrics snapshot to %s\n", metricsPath)
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		events := col.Events()
		err = obs.WriteTrace(f, events)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing trace to %s: %w", tracePath, err)
		}
		dropped := ""
		if n := col.DroppedEvents(); n > 0 {
			dropped = fmt.Sprintf(" (%d dropped at the rings)", n)
		}
		fmt.Printf("wrote %d trace events to %s%s\n", len(events), tracePath, dropped)
	}
	return nil
}

func run(appName string, cores, packets, attacks int, monitors bool, qdepth, optWords int, seed int64, clockMHz float64, forensicDepth int, col *obs.Collector) error {
	app, err := apps.ByName(appName)
	if err != nil {
		return err
	}
	prog, err := app.Program()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	param := rng.Uint32()
	h := mhash.NewMerkle(param)
	g, err := monitor.Extract(prog, h)
	if err != nil {
		return err
	}
	np, err := npu.New(npu.Config{Cores: cores, MonitorsEnabled: monitors, TraceDepth: forensicDepth, Obs: col})
	if err != nil {
		return err
	}
	if err := np.InstallAll(appName, prog.Serialize(), g.Serialize(), param); err != nil {
		return err
	}
	fmt.Printf("npsim: %s on %d cores, monitors=%v, graph %d nodes (%d bits)\n",
		appName, cores, monitors, g.Len(), g.MemoryBits())

	gen := packet.NewGenerator(seed)
	gen.OptionWords = optWords

	var atk []byte
	if attacks > 0 {
		smash := attack.DefaultSmash()
		code, err := smash.HijackPayload()
		if err != nil {
			return err
		}
		atk, err = smash.CraftPacket(code)
		if err != nil {
			return err
		}
	}

	total := packets + attacks
	every := 0
	if attacks > 0 {
		every = total / attacks
	}
	hijacked := 0
	attacksSent := 0
	for i := 0; i < total; i++ {
		var pkt []byte
		isAttack := every > 0 && attacksSent < attacks && i%every == every-1
		if isAttack {
			pkt = atk
			attacksSent++
		} else {
			pkt = gen.Next()
		}
		res, err := np.Process(pkt, qdepth)
		if err != nil {
			return err
		}
		if isAttack && attack.Succeeded(apps.PacketResult{Verdict: res.Verdict, Packet: res.Packet}) {
			hijacked++
		}
		if res.Detected && forensicDepth > 0 {
			fmt.Printf("\nALARM on core %d — forensic trace (last %d instructions, !! = alarm):\n%s\n",
				res.Core, forensicDepth, np.TraceDump(res.Core, forensicDepth))
			forensicDepth = 0 // dump the first alarm only
		}
	}

	s := np.Stats()
	fmt.Printf("packets: %d benign + %d attacks\n", packets, attacksSent)
	fmt.Printf("  forwarded=%d dropped=%d alarms=%d faults=%d hijacked=%d\n",
		s.Forwarded, s.Dropped, s.Alarms, s.Faults, hijacked)
	if s.Processed > 0 {
		cpp := float64(s.Cycles) / float64(s.Processed)
		mpps := clockMHz / cpp
		fmt.Printf("  %.0f cycles/packet -> %.2f Mpps/core, %.2f Mpps aggregate at %.0f MHz\n",
			cpp, mpps, mpps*float64(cores), clockMHz)
	}
	for c := 0; c < cores; c++ {
		if checked, alarms, maxPos, err := np.MonitorStats(c); err == nil {
			fmt.Printf("  core %d monitor: %d instructions checked, %d alarms, max %d parallel positions\n",
				c, checked, alarms, maxPos)
		}
	}
	return nil
}
