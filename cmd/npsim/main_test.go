package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdmmon/internal/obs"
)

func TestRunBasic(t *testing.T) {
	if err := run("ipv4cm", 2, 200, 2, true, 0, 1, 1, 100, 0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithTrace(t *testing.T) {
	if err := run("ipv4cm", 1, 50, 1, true, 0, 0, 2, 100, 8, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnmonitored(t *testing.T) {
	if err := run("ipv4safe", 1, 50, 1, false, 0, 1, 3, 100, 0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllApps(t *testing.T) {
	for _, app := range []string{"ipv4cm", "ipv4safe", "udpecho", "counter", "acl"} {
		if err := run(app, 1, 30, 0, true, 0, 0, 4, 100, 0, nil); err != nil {
			t.Fatalf("%s: %v", app, err)
		}
	}
}

func TestRunBadApp(t *testing.T) {
	if err := run("bogus", 1, 1, 0, true, 0, 0, 1, 100, 0, nil); err == nil {
		t.Error("bogus app accepted")
	}
}

// A run with a collector attached populates the aggregate counters, and both
// telemetry files land on disk with parseable content.
func TestRunWritesTelemetry(t *testing.T) {
	col := obs.New(obs.DefaultRingDepth)
	if err := run("ipv4cm", 2, 100, 2, true, 0, 1, 5, 100, 0, col); err != nil {
		t.Fatal(err)
	}
	snap := col.Snapshot()
	if snap.Counters["np_packets_processed_total"] != 102 {
		t.Errorf("np_packets_processed_total = %d, want 102", snap.Counters["np_packets_processed_total"])
	}
	if snap.Counters["np_alarms_total"] == 0 {
		t.Error("attacks ran but np_alarms_total is zero")
	}

	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "metrics.json")
	promPath := filepath.Join(dir, "metrics.prom")
	tracePath := filepath.Join(dir, "trace.jsonl")
	if err := writeTelemetry(col, jsonPath, tracePath); err != nil {
		t.Fatal(err)
	}
	if err := writeTelemetry(col, promPath, ""); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var back obs.Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("-metrics JSON does not parse: %v", err)
	}
	if back.Counters["np_packets_processed_total"] != 102 {
		t.Errorf("JSON snapshot diverged: %+v", back.Counters)
	}

	prom, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "np_packets_processed_total 102\n") {
		t.Errorf(".prom export missing the processed counter:\n%s", prom)
	}

	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	sawAlarm := false
	for _, line := range strings.Split(strings.TrimSpace(string(trace)), "\n") {
		var ev struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line does not parse: %q: %v", line, err)
		}
		if ev.Kind == "alarm" {
			sawAlarm = true
		}
	}
	if !sawAlarm {
		t.Error("trace has no alarm events despite attack packets")
	}
}

// Every fault scenario holds its own acceptance assertions; with a good
// seed all pass, and the structured error carries mode and scenario.
func TestFaultScenariosPass(t *testing.T) {
	if err := runFaults("all", "ipv4cm", 1, 1, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFaultScenarioUnknownIsError(t *testing.T) {
	err := runFaults("nope", "ipv4cm", 1, 1, nil)
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
	var se *scenarioError
	if errors.As(err, &se) {
		t.Fatalf("unknown-scenario error should not be a scenarioError: %v", err)
	}
}

func TestRolloutScenariosPass(t *testing.T) {
	col := obs.New(obs.DefaultRingDepth)
	if err := runRollout("all", 4, 2, 1, col); err != nil {
		t.Fatal(err)
	}
	// The shared collector saw the fleet's upgrade lifecycle.
	snap := col.Snapshot()
	if snap.Counters["np_commits_total"] == 0 {
		t.Errorf("rollout scenarios ran but np_commits_total = 0")
	}
	if snap.Counters["sec_installs_total"] == 0 {
		t.Errorf("rollout scenarios ran but sec_installs_total = 0")
	}
}

// TestBenchWritesModelSeriesOnly pins the BENCH_npu.json document: host
// metadata and the four virtual-time model series, each populated, and no
// other key.
func TestBenchWritesModelSeriesOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("measures every model series")
	}
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := runBench("ipv4cm", 1, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"source": false, "app": false, "gomaxprocs": false, "num_cpu": false, "go_version": false,
		"shard_scaling": true, "tenant_isolation": true, "fleet_rollout": true, "campaign_detection": true,
	}
	for k, raw := range doc {
		series, ok := want[k]
		if !ok {
			t.Errorf("unexpected key %q", k)
			continue
		}
		var m map[string]json.RawMessage
		if series && (json.Unmarshal(raw, &m) != nil || len(m) == 0) {
			t.Errorf("series %q is empty", k)
		}
	}
	if len(doc) != len(want) {
		t.Errorf("document has %d keys, want %d", len(doc), len(want))
	}
}
