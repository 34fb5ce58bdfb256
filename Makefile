# Same entry points CI uses (.github/workflows/ci.yml); run `make check`
# before sending a PR.

GO ?= go

.PHONY: all build test race bench bench-idle-1m bench-schedule bench-evaluate-cold bench-advance-dense bench-wire fuzz-smoke repo-bench-smoke serve-smoke trace-smoke fmt vet loc check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

# The second pass repeats the two differential tests the period path rests
# on, each against its naive model: the intrusive schedule's (cheap, seeded,
# owner of the bucket-slot invariant) and the reading column's, and the
# engine churn storm: every registry writer and reader against the one
# registry lock, and streaming evaluations between the pops that recycle
# reading columns, never beside one. The third repeats the service-level
# close storm — Close, Subscribe and Advance meeting on the one schedule
# lock, with the one
# ledger reconciled afterwards — its deterministic form, a Close landing
# between a period's evaluation and the step's re-arm flush, and trace-ring
# snapshots racing the steps that record into the rings, which have no lock
# of their own (the query lock serializes both), the service against its
# naive model over the fuzz target's seed operation sequences, at Workers 1
# and 4, a coarse step's fan-out serving from the pyramid epochs Advance
# ingested before it, whose routes must match at Workers 1 and 4, and
# waypoint updates re-planning planners and corridor caches against a
# running Advance: the query lock alone guards both. The last
# drives the real-time clock loop through its fire channel, its test
# goroutine against the clock goroutine, twenty times over.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=5 -run='^(TestIntrusiveScheduleAgainstModel|TestReadingColumnMatchesNaiveReference|TestEngineChurnUnderRace)$$' ./internal/core
	$(GO) test -race -count=5 -run='^(TestCloseStormAgainstAdvanceAndSubscribe|TestPeriodEvaluatedBeforeCloseIsDelivered|TestTraceSpansDuringAdvance|FuzzServiceAgainstModel|TestCoarseAdvanceDeliversEachStreamInOrder|TestReplanRacesAdvance|TestCorridorReplanRacesAdvance)$$' .
	$(GO) test -race -count=20 -run='^TestRealTimeClockCatchesUp$$' .

# One pass over every benchmark as a smoke test, after the cold-evaluation
# allocation gate; use `go test -bench=. ./...` directly for real
# measurements.
bench: bench-evaluate-cold
	$(GO) test -run=xxx -bench=. -benchtime=1x ./...

# The cold-evaluation gate on its own: BenchmarkEvaluateDueCold b.Fatals if
# steady-state cold EvaluateDues allocate more than once per thousand over
# at least 10 000 of them, the ones past -benchtime untimed (the runtime's
# own background allocations count process-wide), so one allocation per
# evaluation fails it at any -benchtime, the smoke pass above included. Its sibling
# BenchmarkEvaluateDueColumned holds the batch path — PopDue with its column
# build, 1000 evaluations, FlushRearms — to nothing allocated per boundary.
bench-evaluate-cold:
	$(GO) test -run=xxx -bench='^BenchmarkEvaluateDueCold$$' -benchtime=5000x ./internal/core
	$(GO) test -run=xxx -bench='^BenchmarkEvaluateDueColumned$$' -benchtime=500x ./internal/core

# The period path's allocation gate: BenchmarkAdvanceDense b.Fatals when a
# steady-state step over 1000 subscribers allocates more than the worker
# fan-out's constant — one allocation per evaluated period shows up as
# ~1000 allocs/op.
bench-advance-dense:
	$(GO) test -run=xxx -bench='^BenchmarkAdvanceDense$$' -benchtime=200x .

# The result frame's allocation gate: BenchmarkResultFrameCodec b.Fatals if
# steady-state result frame appends, traced or not, allocate more than once
# per thousand over at least 10 000 of them (the runtime's own background
# allocations count process-wide), or a decode into a reused Frame allocates
# more than its *Result.
bench-wire:
	$(GO) test -run=xxx -bench='^BenchmarkResultFrameCodec$$' -benchtime=20000x ./internal/wire

# Every fuzz target past its seed corpus, ten seconds each: the result
# frame codec against encoding/json, a subscribe body through everything
# the server runs before Subscribe against the build bounds, and the
# service at Workers 1 and 4 against its naive linear-scan model.
# -fuzzminimizetime=1s caps the minimization of each new interesting input;
# at Go's default of 60 s, the first one found stalls the run at 0 execs/s
# for the rest of its ten seconds.
fuzz-smoke:
	$(GO) test -run=xxx -fuzz='^FuzzResultFrameCodec$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/wire
	$(GO) test -run=xxx -fuzz='^FuzzSubscribeRequest$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/wire
	$(GO) test -run=xxx -fuzz='^FuzzServiceAgainstModel$$' -fuzztime=10s -fuzzminimizetime=1s .

# The million-subscriber idle gate on its own: one pass of the idle arm of
# BenchmarkAdvance1M, which b.Fatals if the timed loop allocates at all —
# the benchmark itself, not a reported allocs/op, holds the 0-alloc idle
# invariant.
bench-idle-1m:
	$(GO) test -run=xxx -bench='^BenchmarkAdvance1M$$/^Idle$$' -benchtime=1x .

# The schedule's steady-state gate: BenchmarkScheduleCohorts pops and
# re-arms whole due cohorts (50k queries over 100 slots, 4k on one due, 1M
# over 1000 slots) and b.Fatals if the timed loop allocates at all or a
# popped batch leaves (due, id) order.
bench-schedule:
	$(GO) test -run=xxx -bench='^BenchmarkScheduleCohorts$$' -benchtime=2000x ./internal/core

# Two seconds of each workload of the repository benchmark (BENCHMARK.json,
# benchmark/README.md). The numbers of so short a run mean nothing; the run
# exits non-zero when a result ledger, the cross-config digest or the
# goroutine check fails, which is what CI wants from it.
repo-bench-smoke:
	@for w in dense_eval stream_fanout warm_paths sparse_churn; do \
		$(GO) run ./benchmark -workload $$w -seed 1 -seconds 2 -trace 0 || exit 1; \
	done

# Build the network front-end and drive it with a short seeded workload;
# writes the SLO_pr.json artifact CI uploads, METRICS_pr.txt — a mid-run
# /metrics scrape, written as served — and TRACE_pr.ndjson, the joined
# client+server trace log trace-smoke validates. The loadgen exits
# non-zero on any subscribe error, an empty steady phase, a traced run
# without spans or a failed scrape (timeout, non-200 status). The
# parameters mirror the CI smoke job: small field, sub-second periods, an
# elasticity wave landing mid-run, every second subscription traced.
serve-smoke:
	$(GO) build -o bin/mobiquery-serve ./cmd/mobiquery-serve
	$(GO) run ./cmd/mobiquery-loadgen -serve bin/mobiquery-serve -out SLO_pr.json \
		-metrics-out METRICS_pr.txt -metrics-final-out METRICS_final.txt \
		-trace-out TRACE_pr.ndjson -trace-every 2 \
		-nodes 2000 -tick 20ms -workers 8 -warmup 1s -duration 6s \
		-wave-workers 8 -wave-at 3s -period 200ms -deadline 100ms \
		-fresh 200ms -lifetime 1s -jit-every 4 -course-every 5 \
		-large-radius 200 -large-every 16

# Validate the trace log serve-smoke wrote and render the lateness
# attribution table: span-id derivation, monotone segment chains, no
# duplicates, and per-class traced counts reconciled against the
# END-of-run /metrics ledger (the mid-run METRICS_pr.txt scrape predates
# the log's later spans, so only the final scrape's counters cover every
# span; a ledger line that does not parse fails the run). -check makes any
# integrity violation fail the build;
# TRACE_attrib.txt is the CI artifact.
trace-smoke: serve-smoke
	$(GO) run ./cmd/mobiquery-tracestat -trace TRACE_pr.ndjson \
		-metrics METRICS_final.txt -out TRACE_attrib.txt -check

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Non-test Go lines per package directory and in total: the "`make loc`
# down" gates of ROADMAP items 3 and 6(c) as a number (CI uploads it as
# LOC.txt).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.git/*' -exec wc -l {} + | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

# Every gate CI runs, in its order. trace-smoke runs serve-smoke first:
# check drives one smoke run and gates the trace log off it.
check: build fmt vet test race bench bench-idle-1m bench-schedule bench-advance-dense bench-wire fuzz-smoke repo-bench-smoke trace-smoke
