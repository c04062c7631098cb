GO ?= go

# bench/benchcmp knobs: baseline git ref, benchmark filter, iteration
# count, and memory reporting (set BENCHMEM= to drop allocs/op columns,
# BENCH=. to run every benchmark).
BASE ?= HEAD~1
BENCH ?= BenchmarkSchedule|BenchmarkSimulateSweep|BenchmarkSimulateLanes|BenchmarkCompilePlan|BenchmarkParse|BenchmarkPipelineCompile|BenchmarkExportJSON
COUNT ?= 10
BENCHMEM ?= -benchmem

.PHONY: build test race vet fmt-check bench bench-check benchcmp check docs-check fuzz trace

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" ; echo "$$out"; exit 1; \
	fi

bench:
	$(GO) test -run '^$$' -bench '$(BENCH)' $(BENCHMEM) ./...

# bench/ is a Go module of its own (its go.mod replaces barriermimd with
# ../), so the root ./... never compiles it: vet and test it explicitly.
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# Compare tier-1 benchmarks between a baseline ref (BASE, default HEAD~1)
# and the working tree. The baseline is checked out into a throwaway git
# worktree so the working tree is never disturbed. Results go through
# benchstat when it is installed; otherwise the raw runs are printed side
# by side for manual comparison (nothing is downloaded).
benchcmp:
	@set -e; \
	tmp="$$(mktemp -d)"; \
	trap 'git worktree remove --force "$$tmp/base" >/dev/null 2>&1 || true; rm -rf "$$tmp"' EXIT; \
	git worktree add --detach "$$tmp/base" "$(BASE)" >/dev/null; \
	echo "==> benchmarking baseline $(BASE)"; \
	( cd "$$tmp/base" && $(GO) test -run '^$$' -bench '$(BENCH)' $(BENCHMEM) -count $(COUNT) . ) > "$$tmp/old.txt"; \
	echo "==> benchmarking working tree"; \
	$(GO) test -run '^$$' -bench '$(BENCH)' $(BENCHMEM) -count $(COUNT) . > "$$tmp/new.txt"; \
	if command -v benchstat >/dev/null 2>&1; then \
		benchstat "$$tmp/old.txt" "$$tmp/new.txt"; \
	else \
		echo "benchstat not installed; raw results:"; \
		echo "--- baseline ($(BASE)) ---"; grep '^Benchmark' "$$tmp/old.txt" || true; \
		echo "--- working tree ---"; grep '^Benchmark' "$$tmp/new.txt" || true; \
	fi

# Fuzz smoke: each language fuzz target for 10 s from its seed corpus in
# internal/lang/testdata/fuzz/, then the optimizer and the DAG builder
# against their map-based oracles (FuzzOptimize, FuzzBuild), then the
# simulator's duration draw against math/rand (FuzzDirectDraws). The
# patterns are anchored because -fuzz must match exactly one target and
# FuzzParse is a prefix of FuzzParseCF.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/lang
	$(GO) test -run '^$$' -fuzz '^FuzzParseCF$$' -fuzztime 10s ./internal/lang
	$(GO) test -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime 10s ./internal/lang
	$(GO) test -run '^$$' -fuzz '^FuzzOptimize$$' -fuzztime 10s ./internal/opt
	$(GO) test -run '^$$' -fuzz '^FuzzBuild$$' -fuzztime 10s ./internal/dag
	$(GO) test -run '^$$' -fuzz '^FuzzDirectDraws$$' -fuzztime 10s ./internal/machine

# Documentation gate: godoc examples compile and pass, and every
# relative Markdown link resolves (see docs_link_test.go).
docs-check:
	$(GO) vet ./...
	$(GO) test -run 'Example|TestDocsRelativeLinks' .

# Produce a sample Perfetto-loadable trace of the paper's Figure 1
# program being scheduled and seed-swept on the SBM: open
# fig1-trace.json at https://ui.perfetto.dev. The capture is documented
# step by step in OBSERVABILITY.md.
trace:
	$(GO) run ./cmd/bmsim -procs 4 -runs 2 -seeds 8 -trace fig1-trace.json testdata/fig1.bb

# Everything the CI gate runs.
check: build vet fmt-check test race docs-check bench-check
