# SDMMon — build, test and reproduction targets.

GO ?= go
GOFMT ?= gofmt

.PHONY: all check build vet fmt-check test test-short test-race test-obs test-faults test-rollout test-shard test-threat test-fleet test-campaign test-tenant bench size fuzz experiments examples verilog clean

all: check

# The default CI gate: build, static checks, full tests, the race
# detector over the concurrent packages, the observability layer, the
# fault-injection suite, the live-upgrade suite, the sharded traffic
# plane, the graded threat-response engine, the adversarial campaign
# corpus, and the multi-tenant protection domains.
check: build vet fmt-check test test-race test-obs test-faults test-rollout test-shard test-threat test-fleet test-campaign test-tenant

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail if any file is not gofmt-clean.
fmt-check:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race detector over the packages with real goroutine concurrency (the
# ProcessBatch workers and the network-path pipeline).
test-race:
	$(GO) test -race ./internal/npu/... ./internal/network/...

# The observability layer under the race detector: event rings, the
# metrics registry, the exporters, and the stats/telemetry consistency
# tests in the packages that publish into it.
test-obs:
	$(GO) test -race ./internal/obs/...
	$(GO) test -race -run 'Obs|Telemetry|Stats|WireGroundTruth|RoundTrip|DoubleCount' \
		./internal/npu/... ./internal/network/... ./cmd/npsim/...

# The live-upgrade suite under the race detector: the one wave engine
# (internal/rollout, against a scripted target), staged install and
# atomic cutover, the network and tenant canary rollouts with their
# rollback scopes, and the anti-downgrade sequence ledger; then the npsim
# rollout drills (clean, badcanary, lossy) end to end.
test-rollout:
	$(GO) test -race ./internal/rollout/...
	$(GO) test -race -run 'Upgrade|Stage|Commit|Rollback|Rollout|Downgrade|Manifest|Sequence|Ledger|Replay' \
		./internal/seccrypto/... ./internal/npu/... ./internal/core/... ./internal/network/... ./internal/tenant/...
	$(GO) run ./cmd/npsim -rollout all -seed 3 > /dev/null

# The resilience suite under the race detector: fault injectors, core
# quarantine/recovery, and the retrying secure install.
test-faults:
	$(GO) test -race ./internal/fault/...
	$(GO) test -race -run 'FaultInjection|Supervisor|Quarantine|Recovery|Watchdog|Reliable|QueueSim' \
		./internal/npu/... ./internal/network/...

# The sharded traffic plane under the race detector (dispatch, admission
# control, failover, packet conservation, the lock-free ingress ring),
# plus TestShardScalingGate without it (>= 1.6x simulated aggregate at 4
# shards vs 1, in virtual time).
test-shard:
	$(GO) test -race ./internal/shard/...
	$(GO) test -run 'ShardScalingGate' -count=1 ./internal/shard/

# The graded threat-response engine under the race detector: EWMA/FSM
# edge cases, policy and incident codecs, the sampler, the engine under
# the burst/ramp/slowdrip campaign drills (byte-identical incident
# replay), the live-plane concurrent-drains test, and the shard-side
# conservation drill with responses firing mid-traffic.
test-threat:
	$(GO) test -race ./internal/threat/...
	$(GO) test -race -run 'Threat' -count=1 ./internal/shard/...

# The hierarchical control plane under the race detector (wave rollouts
# through internal/rollout with the wave-aggregate and threat-level gate,
# partition-tolerant delivery, FLTR resume, rotation), plus the npsim
# drills end to end.
test-fleet:
	$(GO) test -race ./internal/fleet/...
	$(GO) run ./cmd/npsim -fleet all -routers 96 -seed 4 > /dev/null

# The adversarial campaign corpus under the race detector: the seven
# attack families with byte-identical replay and per-tick conservation,
# the live concurrent-plane drill, the FreezeAt poisoning contrast, the
# fleet evasion drill, and the npsim self-asserting campaign drill end to
# end.
test-campaign:
	$(GO) test -race ./internal/campaign/...
	$(GO) test -race -run 'Campaign' -count=1 ./internal/shard/... ./internal/threat/... ./internal/fleet/...
	$(GO) run ./cmd/npsim -campaign all -seed 2 > /dev/null

# The multi-tenant protection domains under the race detector: the
# trusted domain manager (per-tenant ledgers, domain-gated installs,
# canaried tenant rollouts through internal/rollout, rolled back on every
# NP newest first), the npu domain partition, the per-tenant
# dispatch/conservation/leakage tests in the shard plane, and the npsim
# two-tenant isolation drill end to end (gadget + noc at one tenant,
# bystander byte-identical to a no-attack control).
test-tenant:
	$(GO) test -race ./internal/tenant/...
	$(GO) test -race -run 'Tenant|Domain|Instance' -count=1 ./internal/npu/... ./internal/shard/... ./internal/campaign/...
	$(GO) run ./cmd/npsim -tenant > /dev/null

# The benchmark of the monitored plane: every workload end to end and
# layer by layer (see bench/README.md). `go run ./cmd/npsim -bench`
# regenerates the virtual-time model series in BENCH_npu.json.
bench:
	bash bench/run.sh -workload all -seed 1

# The two code-size numbers ROADMAP.md tracks, each by one fixed method:
# non-test Go lines of the root module (bench/ and .bench_build/ are not
# counted), and exported functions and methods (`^func` lines naming an
# exported identifier) in the non-test files of internal/ and cmd/, in
# total and per package.
EXPORTED_FUNC = '^func (\([^)]*\) )?[A-Z]'
size:
	@printf 'non-test Go lines: '; find . -name '*.go' ! -name '*_test.go' \
		! -path './bench/*' ! -path './.bench_build/*' -exec cat {} + | wc -l
	@printf 'exported funcs in internal/ and cmd/: '; find internal cmd -name '*.go' \
		! -name '*_test.go' -exec grep -hE $(EXPORTED_FUNC) {} + | wc -l
	@for d in $$(find internal cmd -name '*.go' ! -name '*_test.go' -exec dirname {} + | sort -u); do \
		printf '%6d %s\n' $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' \
			-exec grep -hE $(EXPORTED_FUNC) {} + | wc -l) $$d; done

# Brief fuzzing pass over the attacker-facing parsers and the data plane.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzAssemble -fuzztime=30s ./internal/asm/
	$(GO) test -run=NONE -fuzz=FuzzDeserializeProgram -fuzztime=30s ./internal/asm/
	$(GO) test -run=NONE -fuzz=FuzzDeserializeGraph -fuzztime=30s ./internal/monitor/
	$(GO) test -run=NONE -fuzz=FuzzPackedMonitorEquivalence -fuzztime=30s ./internal/monitor/
	$(GO) test -run=NONE -fuzz=FuzzStepPortEquivalence -fuzztime=30s ./internal/cpu/
	$(GO) test -run=NONE -fuzz=FuzzUnmarshalPackage -fuzztime=30s ./internal/seccrypto/
	$(GO) test -run=NONE -fuzz=FuzzProcessPacket -fuzztime=30s ./internal/npu/
	$(GO) test -run=NONE -fuzz=FuzzThreatPolicy -fuzztime=30s ./internal/threat/
	$(GO) test -run=NONE -fuzz=FuzzIncidentRecord -fuzztime=30s ./internal/threat/
	$(GO) test -run=NONE -fuzz=FuzzFleetReport -fuzztime=30s ./internal/fleet/
	$(GO) test -run=NONE -fuzz=FuzzRotationPlan -fuzztime=30s ./internal/fleet/
	$(GO) test -run=NONE -fuzz=FuzzCampaignSpec -fuzztime=30s ./internal/campaign/

# Regenerate every table/figure of the paper (EXPERIMENTS.md source).
experiments:
	$(GO) run ./cmd/experiments

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/secure_install
	$(GO) run ./examples/attack_detection
	$(GO) run ./examples/multicore_router
	$(GO) run ./examples/hardware_flow

# Emit the RTL artifacts.
verilog:
	$(GO) run ./cmd/hwgen -unit merkle -o merkle_hash_unit.v
	$(GO) run ./cmd/hwgen -unit bitcount -o bitcount_hash_unit.v
	$(GO) run ./cmd/hwgen -unit comparator -o hash_comparator.v

clean:
	rm -f merkle_hash_unit.v bitcount_hash_unit.v hash_comparator.v
	rm -f test_output.txt bench_output.txt
