# Tier-1 verification plus static analysis and race checking.
#
#   make tier1        build + test (the roadmap's tier-1 gate)
#   make lint         run the strudel-lint analyzer suite over ./...
#   make lint-models  verify the model-artifact corpus (valid pass, corrupt fail)
#   make check        tier1 plus `go vet`, strudel-lint, artifacts, the race
#                     detector, and the bench-gate throughput regression gate
#   make bench-gate   measure both annotation paths and fail on a >10%
#                     throughput regression against the committed snapshot
#   make fuzz-smoke   run each fuzz target briefly (regression smoke, ~80s)
#   make bench        annotate-path micro-benchmarks (single file + batch)
#   make bench-dialect dialect detection over the six-profile datagen corpus
#                     (MB/s and allocs/op of the one-pass scorer)
#   make bench-lint   full-repo analyzer-suite benchmark; fails if linting
#                     the repo exceeds the 2.5 s/op budget
#   make bench-obs    batch annotation with nil vs active observability hooks
#   make bench-predict inference-layer micro-benchmarks: forest matrix
#                     kernels (compiled vs pointer), model decode (JSON vs
#                     binary), and the compiled kernel on a production-
#                     shaped model's corpus feature blocks
#   make bench-stream streaming throughput benchmark + the full >= 256 MiB
#                     bounded-memory proof (the default test run uses 32 MiB)
#   make race-stream  race detector over the streaming/window code only (fast)
#   make race-serve   race detector over the annotation service only (fast)
#   make serve-smoke  build strudel-serve, start it on an ephemeral port,
#                     health-check, round-trip an annotation, verify the 413
#                     mapping, and require a clean SIGTERM drain

GO ?= go
FUZZTIME ?= 10s
# The committed performance baseline bench-gate judges against.
BENCH_BASELINE ?= BENCH_10.json
# Full-repo lint wall-clock budget, ns/op (2.5 s): the memoized call graph
# must keep the whole analyzer suite inside it.
LINT_BUDGET_NS ?= 2500000000

.PHONY: build test vet lint lint-reslife lint-models race race-stream race-serve serve-smoke tier1 check fuzz-smoke bench bench-dialect bench-gate bench-lint bench-obs bench-predict bench-stream

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/strudel-lint ./...

# Focused resource-lifetime pass over the tiers where a leaked file,
# cancel func, or goroutine survives past one request: the serve stack
# and the binaries. `make lint` already covers these checks module-wide;
# this target is the fast CI probe for them.
lint-reslife:
	$(GO) run ./cmd/strudel-lint -checks rescleak,lostcancel,goroleak ./internal/serve/... ./cmd/...

# The corpus gate cuts both ways: every valid_ artifact must verify clean
# AND every corrupt_ artifact must be rejected — a verifier that stops
# rejecting is as broken as one that stops accepting.
lint-models:
	$(GO) run ./cmd/strudel-lint -models 'testdata/models/valid_*.json'
	! $(GO) run ./cmd/strudel-lint -models 'testdata/models/corrupt_*.json' > /dev/null 2>&1

race:
	$(GO) test -race ./...

tier1: build test

check: vet lint lint-models tier1 race bench-gate serve-smoke

# Throughput regression gate: re-measure both annotation paths (best of 3)
# and fail on any metric >10% below the committed baseline snapshot.
bench-gate:
	$(GO) run ./cmd/strudel-perf -compare $(BENCH_BASELINE)

# Each -fuzz flag accepts one target per `go test` invocation, so the
# smoke runs are sequential. -run '^$' skips the unit tests.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSplit$$' -fuzztime $(FUZZTIME) ./internal/dialect
	$(GO) test -run '^$$' -fuzz '^FuzzDetectBest$$' -fuzztime $(FUZZTIME) ./internal/dialect
	$(GO) test -run '^$$' -fuzz '^FuzzInfer$$' -fuzztime $(FUZZTIME) ./internal/types
	$(GO) test -run '^$$' -fuzz '^FuzzInferOracle$$' -fuzztime $(FUZZTIME) ./internal/types
	$(GO) test -run '^$$' -fuzz '^FuzzParseNumber$$' -fuzztime $(FUZZTIME) ./internal/types
	$(GO) test -run '^$$' -fuzz '^FuzzIngest$$' -fuzztime $(FUZZTIME) ./internal/ingest
	$(GO) test -run '^$$' -fuzz '^FuzzTableParse$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzCompiledMatrix$$' -fuzztime $(FUZZTIME) ./internal/ml/forest

bench:
	$(GO) test -bench 'BenchmarkAnnotate' -benchmem -run '^$$' .

# Dialect detection as the batch loader runs it, per file of a rendered,
# normalized six-profile corpus: the layer traced as dialect.detect_ms_per_mb.
bench-dialect:
	$(GO) test -bench 'BenchmarkDetectCorpus' -benchmem -count 5 -run '^$$' .

# The ns/op field is column 3 of `go test -bench` output; the awk guard
# fails the target when the full-repo suite blows the wall-clock budget
# (i.e. when something rebuilds the call graph per analyzer again).
bench-lint:
	$(GO) test -bench 'BenchmarkLint' -benchmem -run '^$$' ./internal/analysis | tee /tmp/strudel-bench-lint.out
	awk '/^BenchmarkLint/ { found=1; if ($$3+0 > $(LINT_BUDGET_NS)) { print "bench-lint: " $$3 " ns/op exceeds the $(LINT_BUDGET_NS) ns budget"; bad=1 } } END { if (!found) { print "bench-lint: no BenchmarkLint result found"; exit 1 }; exit bad }' /tmp/strudel-bench-lint.out

bench-obs:
	$(GO) test -bench 'BenchmarkAnnotateAllObs' -benchmem -count 5 -run '^$$' .

# Inference-layer micro-benchmarks: the matrix kernels of both forest
# engines (compiled flattened vs pointer) plus model decode in both
# encodings — the numbers the predict_path/model_load snapshot fields track —
# and the compiled kernel on a production-shaped model's per-table line and
# cell blocks (BenchmarkPredictCorpus, rows/s).
bench-predict:
	$(GO) test -bench 'BenchmarkPredict|BenchmarkForestDecode' -benchmem -run '^$$' ./internal/ml/forest
	$(GO) test -bench 'BenchmarkPredictCorpus' -benchmem -run '^$$' ./internal/core
	$(GO) test -bench 'BenchmarkModelLoad' -benchmem -run '^$$' .

# Streaming: throughput benchmark, then the full-size bounded-memory proof
# (a >= 256 MiB generated file annotated under a constant live-heap ceiling).
bench-stream:
	$(GO) test -bench 'BenchmarkAnnotateStream' -benchmem -run '^$$' .
	STRUDEL_STREAM_HEAVY=1 $(GO) test -run TestAnnotateStreamBoundedMemory -count 1 -v -timeout 30m .

# The streaming driver fans equivalence checks across goroutines; this runs
# just the window/stream tests under the race detector (make race covers
# everything but takes far longer).
race-stream:
	$(GO) test -race -run 'TestAnnotateStream|TestWindow|TestScanner|TestSplitter' -count 1 . ./internal/pipeline ./internal/ingest ./internal/dialect

# The service's admission/coalescing/drain machinery is concurrency-dense;
# this runs its fault suite and the end-to-end test under the race detector
# without waiting for the full `make race`.
race-serve:
	$(GO) test -race -count 1 ./internal/serve
	$(GO) test -race -count 1 -run 'TestServeEndToEnd' .

# Full external lifecycle of the daemon: build, ephemeral port, health
# check, annotation round-trip, deterministic 413, clean SIGTERM drain.
serve-smoke:
	./scripts/serve_smoke.sh
