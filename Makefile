GO ?= go
GOFMT ?= gofmt
# BENCHTIME bounds each benchmark's measurement time; 1x runs one iteration,
# which keeps `make bench` CI-friendly.
BENCHTIME ?= 1x
# BENCH filters which benchmarks run (a go test -bench regexp).
BENCH ?= .
# HOTPATH_BENCHTIME governs the hot-path kernel benchmarks only: 5x yields
# five samples per arm, the minimum benchjson accepts for BENCH_hotpath.json
# (single-iteration numbers are noise).
HOTPATH_BENCHTIME ?= 5x

.PHONY: ci vet build test race fuzz bench bench-hotpath bench-select bench-verdict bench-sim smoke-serve smoke-chaos smoke-shadow smoke-explain smoke-crash

# ci is the gate for every PR: static analysis, a full build, and the test
# suite under the race detector (trace.Collect and the experiments fan out
# across goroutines).
ci: vet build race

# vet is go vet plus a formatting gate: any file gofmt would rewrite fails it.
# It also vets the bench/ module, which builds against this one, so an export
# bench/ calls cannot be deleted or renamed without failing here.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
	@unformatted=$$($(GOFMT) -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 20m ./...

# fuzz runs the native fuzz targets for a bounded budget each: FuzzLoad over
# the checkpoint parsers (Load and LoadClassifier), seeded from
# testdata/fuzz/FuzzLoad; FuzzVerdictScanner over the verdict-log reader
# and Explain, seeded from internal/serve/testdata/fuzz/FuzzVerdictScanner;
# FuzzRepairLogTail over startup recovery's torn-tail repair, seeded from
# internal/serve/testdata/fuzz/FuzzRepairLogTail; and FuzzParseSpec over the
# -disk-faults grammar, seeded from
# internal/diskfaults/testdata/fuzz/FuzzParseSpec.
# A crasher is written into the target's corpus directory and fails the run.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzVerdictScanner$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzRepairLogTail$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime $(FUZZTIME) ./internal/diskfaults

# smoke-serve exercises the long-running detection service end to end with a
# race-enabled binary: readiness, corrupt-checkpoint rollback via /healthz and
# /metrics, and clean SIGTERM drain (see scripts/serve_smoke.sh).
smoke-serve:
	bash scripts/serve_smoke.sh

# smoke-chaos is the serve-layer chaos gate: the in-process chaos harness
# (scorer panics, stalled sources, checkpoint corruption, load spikes —
# concurrently) under the race detector with a bounded wall clock, then a
# real-binary overload drive that must shed loudly while /readyz stays
# truthful (see scripts/serve_chaos.sh).
smoke-chaos:
	bash scripts/serve_chaos.sh

# bench first regenerates the BENCH_hotpath.json baseline (bench-hotpath),
# then runs the root-package benchmarks, the perceptron package's
# binarization ablation and the telemetry micro-benchmarks with -benchmem
# into bench.out, and the serve saturation benchmark (1k+ concurrent streams
# vs p99 verdict latency and shed rate, see docs/SERVICE.md) with its
# forensics-overhead arms into bench_serve.out. Those two are text logs, not
# artifacts: the end-to-end perf ledger is bench/ (bench/run.sh). The serve
# benchmarks fail on an unlogged shed or an implausible p99, so each run's
# exit status is kept (a pipe into tee would drop it).
bench: bench-hotpath
	$(GO) test -bench '$(BENCH)' -benchmem -benchtime $(BENCHTIME) -run '^$$' . ./internal/perceptron ./internal/telemetry > bench.out; \
		s=$$?; cat bench.out; exit $$s
	$(GO) test -bench '^BenchmarkServe(Saturation|ForensicsOverhead)$$' -benchtime $(BENCHTIME) -run '^$$' ./internal/serve > bench_serve.out; \
		s=$$?; cat bench_serve.out; exit $$s

# bench-hotpath regenerates BENCH_hotpath.json with enough samples per arm
# (-min-iters 5) that the artifact is trustworthy enough to gate on.
# BenchmarkSelect lives in internal/features, next to its serial oracle.
bench-hotpath:
	$(GO) test -bench '^Benchmark(Select|Fit|CrossValidate)$$' -benchmem -benchtime $(HOTPATH_BENCHTIME) -run '^$$' . ./internal/features | tee bench_hotpath.out
	$(GO) run ./cmd/benchjson -in bench_hotpath.out -out BENCH_hotpath.json -min-iters 5

# bench-select is the selection-regression guard (CI-gated): measure
# BenchmarkSelect fresh at 5 iterations per arm into a temporary file and
# fail if the parallel-packed arm (the selection context) is not strictly
# faster than the serial-dense arm (the serial per-kernel test oracle), or
# if either arm ran fewer than 5 iterations. The committed
# BENCH_hotpath.json is left untouched.
bench-select:
	@tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(GO) test -bench '^BenchmarkSelect$$' -benchmem -benchtime 5x -run '^$$' ./internal/features > "$$tmp" || { cat "$$tmp"; exit 1; }; \
	cat "$$tmp"; \
	$(GO) run ./cmd/benchjson -in "$$tmp" -out /dev/null -min-iters 5 \
		-require-faster 'BenchmarkSelect/parallel-packed<BenchmarkSelect/serial-dense'

# bench-verdict is the verdict-cost guard (CI-gated): measure
# BenchmarkServeForensicsOverhead fresh at 5 iterations per arm into a
# temporary file and fail unless the verdict arm (scoreItem at serve's
# defaults: trace ID, stage timings and histograms, attribution, flight
# recorder, SLO burn) costs under four times the score arm (bare
# RawScorer.Detect), or if either arm ran fewer than 5 iterations. Nothing
# is written to the repository.
bench-verdict:
	@tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(GO) test -bench '^BenchmarkServeForensicsOverhead$$' -benchmem -benchtime 5x -run '^$$' ./internal/serve > "$$tmp" || { cat "$$tmp"; exit 1; }; \
	cat "$$tmp"; \
	$(GO) run ./cmd/benchjson -in "$$tmp" -out /dev/null -min-iters 5 \
		-require-faster 'BenchmarkServeForensicsOverhead/verdict<4*BenchmarkServeForensicsOverhead/score'

# bench-sim regenerates BENCH_sim.json: BenchmarkSimulatorStream runs one
# 500K-instruction RunStream per op on each serve stream (the benchmark's sim
# probe), at 5 iterations per stream with insts/s, B/op and allocs/op.
bench-sim:
	$(GO) test -bench '^BenchmarkSimulatorStream$$' -benchmem -benchtime 5x -run '^$$' . | tee bench_sim.out
	$(GO) run ./cmd/benchjson -in bench_sim.out -out BENCH_sim.json -min-iters 5

# smoke-shadow runs a miniature continual-learning loop end to end under the
# race detector: train a seed model, serve it, shadow-retrain and promote
# through the non-regression gate, and assert the supervisor hot-reloads the
# promoted version (see scripts/shadow_smoke.sh).
smoke-shadow:
	bash scripts/shadow_smoke.sh

# smoke-explain is the verdict-forensics gate: a bounded serve run must stamp
# trace IDs, stage timings and feature attributions into the verdict log, and
# `perspectron explain` must reconstruct a recorded verdict offline with a
# bit-for-bit identical attribution — and catch a tampered log with a
# non-zero exit (see scripts/explain_smoke.sh and docs/OBSERVABILITY.md).
smoke-explain:
	bash scripts/explain_smoke.sh

# smoke-crash is the crash-safety gate: SIGKILL a real serve child mid-load in
# a loop and assert recovery every time — torn log tails repaired, the durable
# ledger balances (enqueued == records + lost) across incarnations, and
# `perspectron explain` reproduces post-recovery verdicts bit-for-bit (see
# scripts/crash_smoke.sh and docs/FAULTS.md).
smoke-crash:
	bash scripts/crash_smoke.sh
