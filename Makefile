# Development targets. `make ci` is the gate every change must pass: vet
# (including a gofmt cleanliness check), full build, full test suite, the
# race detector on the packages that exercise the lock-free machinery or
# hammer shared metrics, the tagged fault-injection chaos suite, the
# coverage floors of the solver core, the execution substrate, the trace
# and the lint packages, the in-process daemon smoke, the perf regression
# gate, the project static analyzers (cmd/sptrsvlint), the compiler gates,
# a short fuzzing pass over the input parsers, and the vet and short tests
# of the benchmark module, which `./...` does not reach.

GO ?= go

.PHONY: ci vet build test race chaos cover bench-launch bench-json perfgate lint compilercheck lint-update fuzz-short daemon-smoke benchmark-module ab

ci: vet build test race chaos cover daemon-smoke perfgate lint compilercheck fuzz-short benchmark-module

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race . ./internal/exec ./internal/kernels ./internal/block \
		./internal/core ./internal/metrics ./internal/bench ./internal/daemon \
		./internal/trace

# Project-specific static analyzers (DESIGN.md §6.8): hot-path allocation
# discipline, atomic-field access, spin-loop guards, wall-clock placement,
# and dropped errors. The repo must stay finding-free.
lint:
	$(GO) run ./cmd/sptrsvlint ./...

# Compiler gates (DESIGN.md §6.9, §6.13): one build of every package that
# declares a //sptrsv:hotpath function, with -gcflags='-m=2
# -d=ssa/check_bce' under the bcecheck tag. It fails if a hot-path
# function carries more surviving bounds checks than
# internal/lint/bce_allow.txt permits, stopped inlining without a reviewed
# internal/lint/inl_allow.txt entry carrying the compiler's reason
# verbatim, or has a heap escape beyond the sanctioned per-launch
# publication costs, and if either allowlist names a function the audit
# no longer reports.
compilercheck:
	$(GO) run ./cmd/sptrsvlint -compiler

# Regenerate both compiler allowlists from the current tree, then fail if
# they changed — a dirty result means an unreviewed drift between the
# committed allowlists and what the compiler actually does. Commit the
# regenerated files after reviewing the diff.
lint-update:
	$(GO) run ./cmd/sptrsvlint -compiler -update
	git diff --exit-code internal/lint/bce_allow.txt internal/lint/inl_allow.txt

# Short deterministic-budget fuzzing pass over the two input parsers (the
# Matrix Market reader and the lint harness's want/ignore comment parsers)
# plus the differential fuzzers: kernel equivalence, which solves random
# triangular systems with every optimized kernel against the serial
# reference at both element types; the solver stream's round trip, which
# must re-write a loaded plan byte for byte and solve as the analysed one;
# and the solve endpoint's codec, whose decoder and encoder must agree
# with encoding/json on every input.
# Corpus finds land in testdata/fuzz and should be committed.
FUZZTIME ?= 10s

fuzz-short:
	$(GO) test -run - -fuzz FuzzReadMatrixMarket -fuzztime $(FUZZTIME) ./internal/sparse
	$(GO) test -run - -fuzz FuzzParseWant -fuzztime $(FUZZTIME) ./internal/lint
	$(GO) test -run - -fuzz FuzzKernelEquivalence -fuzztime $(FUZZTIME) ./internal/kernels
	$(GO) test -run - -fuzz FuzzPlanRoundTrip -fuzztime $(FUZZTIME) ./internal/block
	$(GO) test -run - -fuzz '^FuzzDecodeSolveRequest$$' -fuzztime $(FUZZTIME) ./internal/daemon
	$(GO) test -run - -fuzz '^FuzzEncodeSolveResponse$$' -fuzztime $(FUZZTIME) ./internal/daemon

# Fault-injection chaos suite: hooks compiled in under the faultinject tag
# drive panics, in-degree corruption, solution poisoning and worker delays
# through the guarded solve path.
chaos:
	$(GO) test -tags faultinject ./internal/faultinject ./internal/block ./internal/kernels \
		./internal/daemon

# Coverage gate for the solver core and the execution substrate. Floors
# sit ~10 points below the measured coverage so refactors have headroom
# while untested new subsystems still fail the gate.
COVER_FLOOR_BLOCK     ?= 80
COVER_FLOOR_EXEC      ?= 60
COVER_FLOOR_TRACE     ?= 85
COVER_FLOOR_LINT      ?= 75

cover:
	$(GO) test -coverprofile=/tmp/blocksptrsv-cover-block.out ./internal/block
	$(GO) test -coverprofile=/tmp/blocksptrsv-cover-exec.out ./internal/exec
	$(GO) test -coverprofile=/tmp/blocksptrsv-cover-trace.out ./internal/trace
	$(GO) test -coverprofile=/tmp/blocksptrsv-cover-lint.out ./internal/lint
	@$(GO) tool cover -func=/tmp/blocksptrsv-cover-block.out | awk '$$1=="total:" \
		{ pct=$$3; sub(/%/,"",pct); printf "internal/block coverage: %s (floor $(COVER_FLOOR_BLOCK)%%)\n", $$3; \
		  if (pct+0 < $(COVER_FLOOR_BLOCK)) exit 1 }'
	@$(GO) tool cover -func=/tmp/blocksptrsv-cover-exec.out | awk '$$1=="total:" \
		{ pct=$$3; sub(/%/,"",pct); printf "internal/exec coverage: %s (floor $(COVER_FLOOR_EXEC)%%)\n", $$3; \
		  if (pct+0 < $(COVER_FLOOR_EXEC)) exit 1 }'
	@$(GO) tool cover -func=/tmp/blocksptrsv-cover-trace.out | awk '$$1=="total:" \
		{ pct=$$3; sub(/%/,"",pct); printf "internal/trace coverage: %s (floor $(COVER_FLOOR_TRACE)%%)\n", $$3; \
		  if (pct+0 < $(COVER_FLOOR_TRACE)) exit 1 }'
	@$(GO) tool cover -func=/tmp/blocksptrsv-cover-lint.out | awk '$$1=="total:" \
		{ pct=$$3; sub(/%/,"",pct); printf "internal/lint coverage: %s (floor $(COVER_FLOOR_LINT)%%)\n", $$3; \
		  if (pct+0 < $(COVER_FLOOR_LINT)) exit 1 }'

# Machine-readable perf trajectory (DESIGN.md §6.7). bench-json runs the
# full canonical suite and refreshes the committed baseline; run it on a
# quiet machine after a deliberate perf change and commit the result.
# perfgate replays the short suite (one matrix per structural-class pair)
# against that baseline with a deliberately generous gate: it exists to
# catch order-of-magnitude mistakes deterministically in CI, not to
# referee single-digit noise. Both pin -scale so medians stay comparable.
BENCH_SCALE    ?= 0.1
BENCH_BASELINE ?= BENCH_baseline.json
PERFGATE_PCT   ?= 400

bench-json:
	@base_sha=$$(sed -n 's/.*"git_sha": *"\([0-9a-f]*\)".*/\1/p' $(BENCH_BASELINE) 2>/dev/null | head -1); \
	head_sha=$$(git rev-parse --short=12 HEAD 2>/dev/null); \
	if [ -n "$$base_sha" ] && [ -n "$$head_sha" ] && [ "$$base_sha" != "$$head_sha" ]; then \
		echo "bench-json: baseline was recorded at $$base_sha, HEAD is $$head_sha — this run refreshes it"; fi
	$(GO) run ./cmd/sptrsvbench -suite -scale $(BENCH_SCALE) -repeats 9 -warmup 2 \
		-json $(BENCH_BASELINE)

perfgate:
	$(GO) run ./cmd/sptrsvbench -suite -short -scale $(BENCH_SCALE) -repeats 3 -warmup 1 \
		-baseline $(BENCH_BASELINE) -gate $(PERFGATE_PCT) -json /tmp/blocksptrsv-perfgate.json

# Daemon smoke (part of `make ci`): an in-process one-worker sptrsvd
# must answer a lone request without the coalescing hold (its coalesce
# phase below the window), and under a 2s concurrent burst must coalesce
# requests into multi-RHS batches (factor > 1), answer every request
# without an error response, nest kernel steps inside the solve phases
# of /debug/requests, then drain cleanly. DESIGN.md §6.10, §6.12.
daemon-smoke:
	$(GO) run ./cmd/sptrsvd -smoke

# The benchmark (benchmark/) is a Go module of its own, so the root
# module's vet and test targets never reach it: vet it and run its short
# tests, every workload on tiny matrices, from inside it.
benchmark-module:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...

# Interleaved A/B pairs of the repository benchmark (scripts/ab.sh): the
# working tree against BASE, checked out in a git worktree under
# .bench_build/. PAIRS pairs of `-workload all -seconds 25`, alternating
# which side runs first, then `benchmark/run.sh -compare` on both sets;
# fails when a median leaves its bound. About four minutes a pair.
BASE  ?= HEAD
PAIRS ?= 10

ab:
	bash scripts/ab.sh $(BASE) $(PAIRS)

# Launch-latency microbenchmarks: the two launcher styles head to head.
bench-launch:
	$(GO) test -run - -bench 'LaunchOverhead|LevelSetLauncherStyles' \
		./internal/exec ./internal/kernels
