# Dynamoth — common development targets.

GO ?= go

.PHONY: all build test test-short race chaos replay obs latency conns channels scenarios bench experiments examples vet clean

# Build identity baked into binaries and the dynamoth_build_info metric.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -X github.com/dynamoth/dynamoth/internal/buildinfo.Version=$(VERSION)

all: vet test

build:
	$(GO) build -ldflags '$(LDFLAGS)' ./...

vet:
	$(GO) vet ./...

# Full suite, including the minutes-long full-scale Figure 5 reproduction.
test:
	$(GO) test ./...

# Everything except the slow full-scale runs.
test-short:
	$(GO) test -short ./...

race:
	$(GO) test -short -race ./...

# Fault-tolerance suite (broker crashes, partitions, client failover),
# twice under the race detector.
chaos:
	$(GO) test -race -count=2 -run 'Chaos|Fail|Crash' ./...

# Zero-loss delivery suite: cursor encoding + seq tracker + replay ring
# property tests, the dedup-window interop regressions, and the chaos
# zero-loss scenarios, all under the race detector — then a RESP PUBLISH on
# the assembled node (replay rings, stage stamping and every observer on)
# must still allocate nothing.
replay:
	$(GO) test -race -run 'Replay|Cursor|SeqTracker|Dedup' ./...
	$(GO) test -race -count=1 -run 'TestChaosBrokerCrashMidPublishStorm|TestChaosRebalanceDrainZeroLoss' ./cluster/
	$(GO) test -count=1 -run TestNodePublishPathAllocs ./internal/broker/

# The packages holding the observability and latency-waterfall code: the one
# histogram, the registry/admin/top-K layer, the flight recorder, the node's
# observers, the LLA's region path, the stage-stamp wire format, the harness
# recorder, the region delay model, the in-process scrape and waterfall
# cross-checks, and the CLI/daemon endpoints (the exec-based admin test
# included). Selected by package, so a renamed or moved test cannot leave
# the gate.
OBS_PKGS := ./internal/metrics/ ./internal/obs/ ./internal/trace/ ./internal/server/ \
	./internal/lla/ ./internal/message/ ./internal/loadgen/ ./internal/netsim/ \
	./cluster/ ./cmd/dynamoth-cli/ ./cmd/dynamoth-node/

# Observability suite: every package above under the race detector.
obs:
	$(GO) test -race $(OBS_PKGS)

# Latency-waterfall suite: the obs suite (the stage stamps, stage histograms
# and region attribution live among its packages) — then a RESP PUBLISH on
# the assembled node (stage stamping, replay rings and every observer on)
# must still allocate nothing.
latency: obs
	$(GO) test -count=1 -run TestNodePublishPathAllocs ./internal/broker/

# Connection-scale suite: the connection layer's packages under the race
# detector (selected by package, so a renamed test cannot leave the gate),
# the reactor's cross-shard tests five more times (adoption and hand-off bugs
# depend on the schedule), then a reduced-scale run of the C100k harness
# (real dynamoth-node subprocess, multiplexed epoll load driver; writes
# BENCH_conns.json).
# Linux-only — the harness is skipped elsewhere. CONNS overrides the target
# count.
CONNS ?= 5000
conns:
	$(GO) test -race ./internal/broker/ ./internal/workload/
	$(GO) test -race -count=5 -run TestReactor ./internal/broker/
	$(GO) run ./cmd/experiments -run conns -conns $(CONNS)

# Channel-scale suite: the bounded hot-state packages (cache, client local
# plan, LLA accumulator) under the race detector, then the channel soak — a
# real dynamoth-node subprocess taking one publication on each of CHANNELS
# distinct channels; RSS on both sides must stay flat from CHANNELS/10 to
# CHANNELS and the node's under an absolute ceiling, or the run fails (writes
# BENCH_channels.json). CHANNELS overrides the target.
CHANNELS ?= 1000000
channels:
	$(GO) test -race ./internal/hotstate/ ./internal/localplan/ ./internal/lla/
	$(GO) run ./cmd/experiments -run channels -channels $(CHANNELS)

# Scenario suite: the open-loop load-generator tests under the race
# detector, then every scenario (IoT fan-in, market fan-out, chat churn,
# mixed multi-tenant) against a real dynamoth-node subprocess. Latency is
# measured from intended send instants (coordinated-omission-safe); each
# scenario writes BENCH_scenario_<name>.json. SCENARIO_SCALE shrinks the
# load shape-preserving; SCENARIO selects one by name.
SCENARIO_SCALE ?= 1.0
SCENARIO ?=
scenarios:
	$(GO) test -race ./internal/loadgen/ -run 'Schedule|Stamp|OpenLoop|Recorder'
	$(GO) test -race ./internal/workload/ -run 'Scenario'
	$(GO) run ./cmd/experiments -run scenarios -scenario '$(SCENARIO)' -scenario-scale $(SCENARIO_SCALE)

# Reduced-scale figure benches + substrate microbenches.
bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every paper table/figure at full scale (writes to stdout;
# the checked-in experiments_output.txt is this output for seed 1).
experiments:
	$(GO) run ./cmd/experiments -run all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/chat
	$(GO) run ./examples/game
	$(GO) run ./examples/elastic

clean:
	$(GO) clean ./...
