GO ?= go

# Benchmark trajectory file produced by `make bench`. Bump the number when a
# PR meaningfully changes the performance story so the history accumulates
# (BENCH_1.json, BENCH_2.json, ...): see docs/PERFORMANCE.md.
BENCH_OUT ?= BENCH_24.json

# Coverage floor (percent) enforced by `make cover` on the observability
# and QoS packages: the flight recorder, debug endpoints and the SLO/burn
# engine are the forensics layer, so they stay thoroughly tested. The
# merged profile lands in COVER_PROFILE for CI to archive.
COVER_PKGS ?= ./internal/obs ./internal/qos
COVER_FLOOR ?= 75
COVER_PROFILE ?= coverprofile.out

.PHONY: all check vet build test race alloc-gates fuzz-smoke benchmark-module bench bench-smoke tables-smoke slo-smoke chaos cover loc clean

all: check

# check is the full gate: vet, build everything, race-enabled tests, the
# allocation gates (race-free, see alloc-gates), a short run of every
# fuzzer (fuzz-smoke), the chaos suite (fault injection + resilience) on
# its own for a readable verdict, the SLO-engine smoke, the coverage
# floors, a one-iteration bench smoke so benchmark code can't rot, and
# three tables from maqs-bench so its reading of the same cases can't
# either — E11 among them, an open-loop overload run against a server
# whose contracts size its admission gates. It ends by printing the size
# of the product (loc), the figure a simplicity PR quotes before and after.
check: vet build race alloc-gates fuzz-smoke chaos slo-smoke cover bench-smoke tables-smoke loc

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# alloc-gates runs the end-to-end allocation-regression gates without the
# race detector: they sit at the measured count plus one, and the detector
# makes sync.Pool drop items at random, so under `race` they skip
# themselves (alloc_test.go, race_on_test.go). internal/obs adds the
# histogram's recording gates (histogram_test.go): Observe and an untraced
# ObserveExemplar at 0, a traced one at its one exemplar.
alloc-gates:
	$(GO) test -count=1 -run 'Allocs' . ./internal/obs

# fuzz-smoke gives each native fuzzer FUZZ_TIME: the parsers a peer reaches
# (request header in place vs copying, SCQoS tag and its connection cache,
# SCCommand target, traceparent, SCTraceReturn span summaries, the
# compression module's frame, the secure module's frame).
# `go test -fuzz` takes one target in one package per run. Findings land in
# the package's testdata/fuzz/ and then fail the plain test run too.
FUZZ_TIME ?= 10s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzRequestHeaderUnmarshal$$' -fuzztime=$(FUZZ_TIME) ./internal/giop
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeQoSTag$$' -fuzztime=$(FUZZ_TIME) ./internal/orb
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeCommandTarget$$' -fuzztime=$(FUZZ_TIME) ./internal/orb
	$(GO) test -run='^$$' -fuzz='^FuzzParseTraceparent$$' -fuzztime=$(FUZZ_TIME) ./internal/obs
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeTraceReturn$$' -fuzztime=$(FUZZ_TIME) ./internal/obs
	$(GO) test -run='^$$' -fuzz='^FuzzUnwrap$$' -fuzztime=$(FUZZ_TIME) ./internal/characteristics/compression
	$(GO) test -run='^$$' -fuzz='^FuzzOpen$$' -fuzztime=$(FUZZ_TIME) ./internal/characteristics/encryption

# benchmark-module builds, vets and tests the nested benchmark/ module
# (the repository benchmark of BENCHMARK.json; its own go.mod, so `./...`
# above never reaches it). It imports maqs/internal/..., so a product
# change that breaks the harness fails here, not in the bench pipeline.
# Not part of `check`: it pins processes to one CPU and times them, which
# is CI's job, not every local run's. TestSmoke is skipped — it still
# asserts that binding Null adds at least 15 allocations per op, which
# has been 0 since the bound call's allocations came down to the plain
# call's, and fails on any tree; the `-smoke`
# pass is the same quick run over every workload and every check without
# that one assertion. benchmark/ may only change in a benchmark PR.
benchmark-module:
	cd benchmark && $(GO) vet ./... && $(GO) test -count=1 -skip '^TestSmoke$$' ./...
	bash benchmark/run.sh -smoke -outdir .bench_build/smoke

# bench runs every benchmark family with allocation accounting and records
# the parsed results as a JSON trajectory point (see docs/PERFORMANCE.md
# for the format and how to compare points across PRs).
bench:
	$(GO) test -bench=. -benchmem -benchtime=200ms -run='^$$' . ./internal/orb ./internal/cdr | $(GO) run ./cmd/benchjson -o $(BENCH_OUT)

# bench-smoke executes each benchmark exactly once: it proves the bench
# harness still compiles and runs without paying measurement time. The root
# package's benchmarks are internal/experiments' cases, so this is also
# every case maqs-bench prints.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' . ./internal/orb ./internal/cdr

# tables-smoke is the table path's own smoke: the experiment list, three
# tables measured through testing.Benchmark outside `go test` (E2 and E10
# have no run-once part; E11's is the overload run, ~0.6 s; ~6 s in all),
# and the faults demo, whose Degrader the SLO engine drives: it must exit
# 0 and report its degradation line.
tables-smoke:
	$(GO) run ./cmd/maqs-bench -list
	$(GO) run ./cmd/maqs-bench E2 E10 E11
	@out=$$($(GO) run ./cmd/maqs-bench -faults -fault-calls 200) || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | grep -q '^  qos degradation ' || { echo "tables-smoke: the faults demo printed no qos degradation line"; exit 1; }

# cover enforces the coverage floor on every package in COVER_PKGS and
# writes the merged statement-coverage profile to COVER_PROFILE. It fails
# when any package's statement coverage drops below COVER_FLOOR percent.
cover:
	@out=$$($(GO) test -cover -coverprofile=$(COVER_PROFILE) $(COVER_PKGS)) || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	pcts=$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
	want=$$(echo "$(COVER_PKGS)" | wc -w); \
	got=$$(echo "$$pcts" | grep -c .); \
	if [ "$$got" -lt "$$want" ]; then echo "cover: coverage reported for $$got of $$want packages"; exit 1; fi; \
	for pct in $$pcts; do \
		awk "BEGIN { if ($$pct < $(COVER_FLOOR)) { printf \"cover: %.1f%% below floor $(COVER_FLOOR)%%\n\", $$pct; exit 1 } }" || exit 1; \
	done

# slo-smoke exercises the SLO engine's burn windows, state machine and
# facade wiring race-enabled, the Degrader that WatchSLO drives from it
# (descent, retry, cooldown, no over-degradation), the contract-hierarchy
# plan that is its ladder (NegotiatePlan, the ladder property test) and
# the renegotiation it steps with — a focused gate that fails fast when
# the budget arithmetic, the ladder or the degrader hookup regresses.
slo-smoke:
	$(GO) test -race -run 'TestSLO|TestWindowCounter|TestHealthAndReady|TestDegrade|TestBreakerTransitions|TestNegotiatePlan|TestPlanLadder|TestRenegotiate' ./internal/qos ./internal/obs .

# chaos runs the fault-injection stress tests race-enabled: the seeded
# FaultPlan chaos run, the shed-storm overload case (TestChaosShedStorm),
# the admission-gate suite (TestDispatch*: the gate is the server's only
# overload mechanism, see docs/ADMISSION.md) and the targeted
# retry/breaker tests.
chaos:
	$(GO) test -race -run 'TestChaos|TestDispatch|TestRetry|TestBreaker|TestNonIdempotent|TestFault' -v ./internal/orb ./internal/netsim ./internal/resilience

# loc prints the non-test, non-generated Go lines (wc -l, comments and all)
# of every package under internal/ (one row per directory, found by
# listing, so a deleted or shrinking package shows up), of cmd/ and
# examples/ (whole trees) and of the whole root module (benchmark/ is its
# own module and a harness, not product), from the files git tracks or
# would track: one number from one command for ROADMAP and for
# "net-negative" claims. Lines moved into _test.go files lower it without
# simplifying anything, so a second column counts those: a move between
# the two shows as a move. Deleted comments show in neither — read the
# diff, too.
LOC_FILES = git ls-files --cached --others --exclude-standard -- '*.go' | grep -v -e '\.gen\.go$$' -e '^benchmark/'
loc:
	@files=$$($(LOC_FILES)); \
	count() { echo "$$files" | grep "$$1" | grep $$2 '_test\.go$$' | xargs -r cat | wc -l; }; \
	printf 'loc %-36s %8s %8s\n' '' non-test _test.go; \
	for dir in $$(echo "$$files" | grep '^internal/' | xargs -n1 dirname | sort -u); do \
		printf 'loc %-36s %8d %8d\n' $$dir $$(count "^$$dir/[^/]*$$" -v) $$(count "^$$dir/[^/]*$$" -e); \
	done; \
	for dir in cmd examples; do \
		printf 'loc %-36s %8d %8d\n' $$dir/ $$(count "^$$dir/" -v) $$(count "^$$dir/" -e); \
	done; \
	printf 'loc %-36s %8d %8d\n' total $$(count . -v) $$(count . -e)

clean:
	$(GO) clean ./...
