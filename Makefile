# DarNet verify gate. `make verify` is the tier-1 check every change must
# pass: formatting, go vet, the project's own static analyzers
# (cmd/darnet-lint), a full build and test sweep, the race detector over
# the concurrent middleware packages and the model packages they share, the
# bench/stream/obs/crash smokes, a vet of the module for a GOARCH without the
# assembly kernels, and one pass of the per-layer kernel benchmarks.

GO ?= go

RACE_PKGS = ./internal/collect ./internal/tsdb ./internal/core ./internal/telemetry ./internal/fault ./internal/stream ./internal/obs ./internal/durable ./internal/nn ./internal/rnn

# bench-kernels time per sub-benchmark; verify runs each kernel once (1x) so
# the ledgers keep compiling and running, `make bench-kernels` measures. A
# time rather than a count, because a training step of the whole CNN takes
# thousands of times longer than an inference layer.
KERNEL_BENCHTIME ?= 1s

# bench-smoke artifact location; override with BENCH_OUT=BENCH_PR3.json to
# refresh the committed benchmark (then bump the scale/epochs back up).
BENCH_OUT ?= /tmp/darnet-bench-smoke.json

# stream-smoke artifact location; override with STREAM_OUT=BENCH_PR7.json to
# refresh the committed streaming benchmark.
STREAM_OUT ?= /tmp/darnet-stream-smoke.json

# obs-smoke artifact location; override with OBS_OUT=BENCH_PR8.json to
# refresh the committed observability-overhead benchmark.
OBS_OUT ?= /tmp/darnet-obs-smoke.json

# crash-smoke artifact location; override with CRASH_OUT=BENCH_PR10.json
# CRASH_SCALE=1 to refresh the committed crash-recovery benchmark.
CRASH_OUT ?= /tmp/darnet-crash-smoke.json
CRASH_SCALE ?= 0.01

.PHONY: verify fmt vet cross lint build test race perfbench-test bench-kernels bench-smoke stream-smoke obs-smoke crash-smoke chaos fuzz-smoke

# The lint sweep in verify must use less than this many milliseconds of CPU
# time (user + sys): the analyzers are part of the inner loop, and a
# regression in loading or IR construction should fail the gate, not
# silently tax every future build.
LINT_BUDGET_MS ?= 2000

verify: fmt vet cross lint build test race perfbench-test bench-smoke stream-smoke obs-smoke crash-smoke
	$(MAKE) bench-kernels KERNEL_BENCHTIME=1x
	@echo "verify: OK"

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# cross vets the module for arm64, which builds the Go kernels instead of
# the amd64 assembly (internal/tensor): the per-GOARCH kernel files must keep
# every other architecture compiling and passing vet.
cross:
	GOARCH=arm64 $(GO) vet ./...

# lint runs the full analyzer registry over the module as one linked unit:
# one call graph spans every package, so the whole-program analyzers follow
# calls across package boundaries, and a //lint:ignore that suppresses
# nothing is itself a finding. Per-phase and per-analyzer wall time go to
# stderr, and the sweep itself must stay inside LINT_BUDGET_MS of CPU time.
# Compile time doesn't count: the binary is prebuilt, and so is the export
# data the loader asks `go list -export` for, which after an edit to a deep
# package costs more CPU than the sweep. CPU rather than wall time, so a
# busy host cannot fail a clean sweep; bash's `time` keyword measures it,
# since make's /bin/sh may lack one. The binary and the timing go to a
# fresh temporary directory, removed on exit, so two checkouts verifying at
# once on one host never share either.
lint:
	@tmp=$$(mktemp -d) || exit; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/darnet-lint" ./cmd/darnet-lint || exit; \
	$(GO) list -export -e -deps ./... > /dev/null || exit; \
	bash -c "TIMEFORMAT='%3U %3S'; { time '$$tmp/darnet-lint' -timings ./... 2>&3; } 3>&2 2>'$$tmp/cpu'"; \
	rc=$$?; if [ $$rc -ne 0 ]; then exit $$rc; fi; \
	ms=$$(awk '{ printf "%d", ($$1 + $$2) * 1000 }' "$$tmp/cpu"); \
	echo "lint: module sweep used $${ms}ms of CPU (budget $(LINT_BUDGET_MS)ms)"; \
	if [ $$ms -gt $(LINT_BUDGET_MS) ]; then \
		echo "lint: exceeded the $(LINT_BUDGET_MS)ms CPU-time budget"; exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# perfbench is a module of its own (darnet/perfbench, replace darnet => ../),
# so the root build and test sweep never compile it. Vet and test it here so
# an API change in the packages it imports fails verify, not the benchmark.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# bench-kernels is the kernel and per-layer ledger, with ns/op, allocs/op,
# FLOPs and GFLOP/s: BenchmarkKernels (internal/tensor) runs every
# multiply-accumulate, max-pool and ReLU kernel path the host can execute
# on the served shapes, BenchmarkInferLayers one sub-benchmark per
# MicroInception layer (internal/nn) and per BiLSTM layer (internal/rnn) on
# a warm inference workspace, BenchmarkTrainLayers one per convolution,
# dense and BiLSTM layer for a training forward plus backward pass, and
# BenchmarkClassifyStages (internal/core) times each classify stage and the
# whole overlapped call against its critical path, and
# BenchmarkEngineTickerWindow (internal/stream) one stream window through the
# engine ticker at perfbench's geometry.
bench-kernels:
	$(GO) test -run '^$$' -bench 'BenchmarkKernels|BenchmarkInferLayers|BenchmarkTrainLayers|BenchmarkClassifyStages|BenchmarkEngineTickerWindow' -benchmem -benchtime $(KERNEL_BENCHTIME) ./internal/tensor ./internal/nn ./internal/rnn ./internal/core ./internal/stream

# bench-smoke trains a deliberately tiny configuration, probes the serving
# path, writes the machine-readable benchmark, and validates it: the only
# smoke that gates Table 2's three accuracies and times the Bayesian-network
# stage. The committed BENCH_PR3.json is produced at default scale/epochs
# instead.
bench-smoke:
	$(GO) run ./cmd/darnet-eval -exp bench -scale 0.012 -cnn-epochs 2 -rnn-epochs 2 -q -bench-out $(BENCH_OUT)
	$(GO) run ./cmd/darnet-eval -check-bench $(BENCH_OUT)

# stream-smoke drives the streaming classification pipeline to saturation
# (offered input >= 2x classify capacity), writes the machine-readable
# report, and validates it: bounded queue depth, counted sheds/skips, a live
# alert-latency distribution. The committed BENCH_PR7.json uses these flags.
stream-smoke:
	$(GO) run ./cmd/darnet-eval -exp stream -scale 0.01 -cnn-epochs 2 -rnn-epochs 2 -q -bench-out $(STREAM_OUT)
	$(GO) run ./cmd/darnet-eval -check-bench $(STREAM_OUT)

# obs-smoke measures the observability tax: the saturating stream workload
# with tracing+scraping off (baseline) vs. on (instrumented) in nine paired
# runs, validated to keep the median paired throughput loss within the 5%
# overhead budget. The committed BENCH_PR8.json is produced at a larger
# scale with the same flags.
obs-smoke:
	$(GO) run ./cmd/darnet-eval -exp obs -scale 0.01 -cnn-epochs 2 -rnn-epochs 2 -q -bench-out $(OBS_OUT)
	$(GO) run ./cmd/darnet-eval -check-bench $(OBS_OUT)

# crash-smoke runs the crash-recovery benchmark at reduced scale: per-policy
# WAL insert overhead, measured power-cut loss checked against each fsync
# policy's bound, timed recovery, and the torn-tail/bit-flip/sync-failure
# injection matrix, validated by -check-bench. The committed BENCH_PR10.json
# is the same experiment at -scale 1 (10^6 readings).
crash-smoke:
	$(GO) run ./cmd/darnet-eval -exp crash -scale $(CRASH_SCALE) -q -bench-out $(CRASH_OUT)
	$(GO) run ./cmd/darnet-eval -check-bench $(CRASH_OUT)

# fuzz-smoke runs every fuzz target for 20 s, one package:target pair per
# FUZZ_TARGETS entry (go test fuzzes one target per run). It is kept out of
# verify so verify's wall time does not grow; CI runs it as its own step.
FUZZ_TARGETS = ./internal/bayes:FuzzCombinerUnmarshalBinary ./internal/wire:FuzzConnRecv

fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t#*:}; \
		echo "fuzz-smoke: $$name in $$pkg"; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime 20s $$pkg; \
	done

# chaos runs the fault-injection suite under the race detector: the
# deterministic chaos-transport and disk-fault unit tests, the collect
# resilience tests, and the end-to-end chaos pipelines — reconnect/backoff,
# at-least-once dedupe, degraded classification, and the crash-restart test
# (controller hard-killed mid-stream, recovered from its data directory,
# zero duplicate rows). It then replays the chaos benchmark schedule and
# validates the report schema.
chaos:
	$(GO) test -race ./internal/fault ./internal/collect
	$(GO) test -race -run 'TestChaosPipeline|TestCrashRestartPreservesDedupe' .
	$(GO) run ./cmd/darnet-eval -exp chaos -bench-out /tmp/darnet-chaos-bench.json
	$(GO) run ./cmd/darnet-eval -check-bench /tmp/darnet-chaos-bench.json
