# Dynamoth — common development targets.

GO ?= go

.PHONY: all build test test-short race chaos replay obs latency conns channels bench experiments examples vet loc clean

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

# Fault-tolerance suite (broker crashes, partitions, client failover): the
# packages holding the chaos, failover, detector-repair and crash-billing
# tests, twice under the race detector. Selected by package, so a renamed or
# moved test cannot leave the gate.
CHAOS_PKGS := . ./cluster/ ./internal/balancer/ ./internal/cloud/ ./internal/lla/ ./internal/trace/
chaos:
	$(GO) test -race -count=2 $(CHAOS_PKGS)

# Zero-loss delivery suite: the packages holding the cursor encoding, seq
# tracker and replay ring property tests and the replayed-duplicate
# accounting regressions (selected by package), and the chaos zero-loss scenarios, all
# under the race detector — then a RESP PUBLISH on the assembled node (replay
# rings, stage stamping and every observer on) must still allocate nothing.
REPLAY_PKGS := . ./cluster/ ./cmd/dynamoth-cli/ ./internal/broker/ ./internal/message/ ./internal/trace/
replay:
	$(GO) test -race $(REPLAY_PKGS)
	$(GO) test -race -count=1 -run 'TestChaosBrokerCrashMidPublishStorm|TestChaosRebalanceDrainZeroLoss' ./cluster/
	$(GO) test -count=1 -run TestNodePublishPathAllocs ./internal/broker/

# The packages holding the observability and latency-waterfall code: the one
# histogram, the registry/admin/top-K layer, the flight recorder, the node's
# observers, the LLA, the stage-stamp wire format, the in-process scrape and
# waterfall cross-checks, and the CLI/daemon endpoints
# (the exec-based admin test included: it boots a node, validates /metrics,
# the flight-recorder stream and its ?since= cursor, and after 30
# publications the /debug/latency waterfall). Selected by package, so a
# renamed or moved test cannot leave the gate.
OBS_PKGS := ./internal/metrics/ ./internal/obs/ ./internal/trace/ ./internal/server/ \
	./internal/lla/ ./internal/message/ \
	./cluster/ ./cmd/dynamoth-cli/ ./cmd/dynamoth-node/

# Observability suite: every package above under the race detector.
obs:
	$(GO) test -race $(OBS_PKGS)

# Latency-waterfall suite: the obs suite (the stage stamps and stage
# histograms live among its packages) — then a RESP PUBLISH on
# the assembled node (stage stamping, replay rings and every observer on)
# must still allocate nothing.
latency: obs
	$(GO) test -count=1 -run TestNodePublishPathAllocs ./internal/broker/

# Connection-scale suite: the connection layer's packages under the race
# detector (selected by package, so a renamed test cannot leave the gate),
# the reactor's cross-shard tests five more times (adoption and hand-off bugs
# depend on the schedule), then a reduced-scale run of the C100k soak (real
# dynamoth-node subprocess, multiplexed epoll load driver; it judges itself —
# target held unless fd-capped, stamps intact, churn ran, epoll served — and
# writes nothing).
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
# CHANNELS and the node's under an absolute ceiling, every node cache must sit
# within its capacity, or the run fails (it writes nothing). CHANNELS
# overrides the target.
CHANNELS ?= 1000000
channels:
	$(GO) test -race ./internal/hotstate/ ./internal/localplan/ ./internal/lla/
	$(GO) run ./cmd/experiments -run channels -channels $(CHANNELS)

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

# Non-test Go lines per package and their total, counted as ROADMAP.md
# counts them: every .go file except tests and bench/ (and the benchmark's
# build directory, which holds no source). A report, not a gate.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0 \
		| xargs -0 wc -l \
		| awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); sub(/^\.\/?/, "", d); if (d == "") d = "."; \
			n[d] += $$1; sum += $$1 } \
			END { for (d in n) printf "%6d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d  total\n", sum }'

clean:
	$(GO) clean ./...
