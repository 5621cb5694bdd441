# Tier-1 verification for the coleader repository. `make check` is the
# gate every PR must pass; CI runs it plus the race and fuzz targets.

GO ?= go

.PHONY: check fmt vet lint lint-bench build test race fuzz-smoke bench modelcheck-smoke fault-smoke fault-verify-smoke batch-smoke ledger-test

# check chains the full tier-1 verify: formatting, vet, the oblint
# model-invariant analyzer, build, and tests.
check: fmt vet lint build test

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint runs oblint over the whole module; it must exit 0. The follow-up
# invocations prove the analyzer itself is alive: each known-violating
# fixture package is linted (as a content-oblivious package, so the
# oblivious-* checks apply) and its -json output must name every listed
# check (fixture:checks pairs; xblock exercises the cross-package call
# graph, dynblock and dyntaint dynamic dispatch). det-maprange and the
# atomic-* checks apply only to the packages DefaultConfig names, so their
# fixtures run in go test (TestFixtureDeterminism, TestFixtureAtomic*).
lint:
	$(GO) run ./cmd/oblint ./...
	@for fc in \
		det:det-time,det-globalrand,layer-dag \
		statesnap:state-snapshot \
		staterestore:state-restore,state-skew \
		xblock:handler-block \
		dynblock:handler-block \
		concleak:conc-goroutine-leak \
		conclock:conc-lock-order \
		obliv:oblivious-import,oblivious-chan,oblivious-payload,oblivious-taint \
		dyntaint:oblivious-taint; do \
		dir=internal/lint/testdata/src/fixt/$${fc%%:*}; \
		out=$$($(GO) run ./cmd/oblint -json -oblivious coleader/$$dir $$dir 2>/dev/null); \
		for chk in $$(echo $${fc##*:} | tr , ' '); do \
			if ! echo "$$out" | grep -q "\"check\": \"$$chk\""; then \
				echo "oblint failed to flag $$dir under $$chk"; exit 1; \
			fi; \
		done; \
	done

# lint-bench times one whole-module oblint run on a prebuilt binary and
# records the wall time (OblintModule) as a benchmark family in
# BENCH_sim.json, so the analyzer's own performance is gated like the
# simulator's. The devirtualization site counts from the run's -json
# output ride along as custom metrics (OblintDevirt: resolved-sites /
# overapprox-sites / unresolvable-sites). Override the entry label for CI
# comparison runs:
#   make lint-bench LINT_BENCH_LABEL=lint-ci
# The run's -json output stays in .oblint-bench-module.json, which CI
# diffs against the committed .oblint-baseline.json.
LINT_BENCH_LABEL ?= lint
lint-bench:
	@mkdir -p bin
	$(GO) build -o bin/oblint ./cmd/oblint
	@t0=$$(date +%s%N); \
	./bin/oblint -json ./... > .oblint-bench-module.json; \
	t1=$$(date +%s%N); \
	echo "whole module: $$(( (t1 - t0) / 1000000 )) ms"; \
	printf 'BenchmarkOblintModule 1 %d ns/op\n' $$(( t1 - t0 )) > .oblint-bench-times.txt
	@res=$$(grep -o '"resolvedSites": *[0-9]*' .oblint-bench-module.json | grep -o '[0-9]*$$'); \
	ova=$$(grep -o '"overApproxSites": *[0-9]*' .oblint-bench-module.json | grep -o '[0-9]*$$'); \
	unr=$$(grep -o '"unresolvableSites": *[0-9]*' .oblint-bench-module.json | grep -o '[0-9]*$$'); \
	echo "devirt: $$res resolved, $$ova over-approx, $$unr unresolvable"; \
	printf 'BenchmarkOblintDevirt 1 %d resolved-sites %d overapprox-sites %d unresolvable-sites\n' \
		"$$res" "$$ova" "$$unr" >> .oblint-bench-times.txt
	$(GO) run ./cmd/benchjson -in .oblint-bench-times.txt -out BENCH_sim.json \
		-label "$(LINT_BENCH_LABEL)" -note "oblint whole-module wall time + devirt site counts"
	@rm -f .oblint-bench-times.txt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector (the live runtime and
# simulator are the concurrency-bearing packages, but everything runs).
race:
	$(GO) test -race ./...

# bench runs the root-package simulator benchmarks (bench_test.go) and
# records the parsed results (time/op, allocs/op, custom metrics such as
# pulses/op) into BENCH_sim.json under BENCH_LABEL, replacing any
# existing entry with that label. Override for quick CI runs:
#   make bench BENCHTIME=100ms BENCH_LABEL=ci
BENCHTIME ?= 1x
BENCH_LABEL ?= post
BENCH_NOTE ?= benchtime $(BENCHTIME)
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -timeout 40m . \
		| tee .bench-out.txt
	@grep -q '^PASS' .bench-out.txt  # tee masks go test's exit; a killed run must not record
	$(GO) run ./cmd/benchjson -in .bench-out.txt -out BENCH_sim.json \
		-label "$(BENCH_LABEL)" -note "$(BENCH_NOTE)"
	@rm -f .bench-out.txt

# modelcheck-smoke proves the parallel explorer's determinism contract on
# a real instance: the -json reports of a sequential and a 4-worker run
# must be byte-for-byte identical (counters, verdict, witness — nothing
# may depend on worker count). Audited runs certify the fingerprint memo
# collision-free on one instance of every CLI machine type (each
# machine's memo key is its snapshot, so each type keys differently).
modelcheck-smoke:
	$(GO) run ./cmd/modelcheck -algo alg2 -ids 5,1,4,2 -json -workers 1 > .modelcheck-w1.json
	$(GO) run ./cmd/modelcheck -algo alg2 -ids 5,1,4,2 -json -workers 4 > .modelcheck-w4.json
	cmp .modelcheck-w1.json .modelcheck-w4.json
	$(GO) run ./cmd/modelcheck -algo alg2 -ids 5,1,4,2 -audit-collisions >/dev/null
	$(GO) run ./cmd/modelcheck -algo alg1 -ids 4,1,3,2 -audit-collisions >/dev/null
	$(GO) run ./cmd/modelcheck -algo alg3 -ids 3,1,2 -flips 0,1,0 -audit-collisions >/dev/null
	@echo "modelcheck reports identical at workers=1 and workers=4; audits clean (alg1, alg2, alg3)"
	@rm -f .modelcheck-w1.json .modelcheck-w4.json

# fault-smoke proves the fault plane's determinism contract end to end:
# two ringsim runs with identical (seed, fault-seed, classes, budget) must
# produce byte-identical output — same outcome, same injection log — and
# the fault-bearing packages must be race-clean. A live run whose four
# scheduled crashes are healed from checkpoints must fire all four and
# re-quiesce: batched runs skip the plane's counters, so a skip past a
# trigger would show here as fewer fired. The live runtime and its
# differential tests run ten times under the race detector at 1, 2 and 4
# Ps: a lost wake-up in the parked-flag handshake would surface only as an
# intermittent StallError, and how often the handshake races depends on
# how many goroutines run at once.
fault-smoke:
	$(GO) run ./cmd/ringsim -algo alg1 -ids 4,9,2,7 -sched random -seed 3 \
		-faults all -fault-seed 11 -fault-budget 4 > .fault-run-a.txt
	$(GO) run ./cmd/ringsim -algo alg1 -ids 4,9,2,7 -sched random -seed 3 \
		-faults all -fault-seed 11 -fault-budget 4 > .fault-run-b.txt
	cmp .fault-run-a.txt .fault-run-b.txt
	$(GO) run ./cmd/ringsim -algo alg2 -ids 4,9,2,7,5,1 -live -faults crash \
		-fault-seed 11 -fault-budget 4 -heal checkpoint > .fault-live.txt
	grep -q 'quiescent=true' .fault-live.txt
	grep -q '4 fired' .fault-live.txt
	$(GO) test -race ./internal/fault/...
	$(GO) test -race -count=10 -cpu 1,2,4 ./internal/live/ ./internal/differential/
	@echo "faulted replays byte-identical; healed live run fired every crash and re-quiesced; fault, live and differential packages race-clean"
	@rm -f .fault-run-a.txt .fault-run-b.txt .fault-live.txt

# fault-verify-smoke proves the fault-aware explorer's determinism
# contract: a finite exhaustive census (loss+crash+corrupt, the
# conserving classes) and a budget-aborted divergent census (dup) must
# both emit byte-identical -json reports at workers=1 and workers=4 —
# partial reports included, via the canonical sequential fallback — and
# the crash-then-heal supervisor must be race-clean. Audited runs of the
# finite 3-node census and of the election ledger's 7-node census
# (582,051 states) certify the fingerprint memo, fault-section terms
# included, collision-free on both.
fault-verify-smoke:
	$(GO) run ./cmd/modelcheck -algo alg2 -ids 3,1,2 -faults loss,crash,corrupt \
		-json -workers 1 > .fverify-w1.json
	$(GO) run ./cmd/modelcheck -algo alg2 -ids 3,1,2 -faults loss,crash,corrupt \
		-json -workers 4 > .fverify-w4.json
	cmp .fverify-w1.json .fverify-w4.json
	$(GO) run ./cmd/modelcheck -algo alg2 -ids 3,1,2 -faults loss,crash,corrupt \
		-audit-collisions >/dev/null
	$(GO) run ./cmd/modelcheck -algo alg2 -ids 7,1,6,2,5,3,4 -faults loss,crash,corrupt \
		-audit-collisions >/dev/null
	-$(GO) run ./cmd/modelcheck -algo alg2 -ids 3,1,2 -faults dup -max-states 20000 \
		-json -workers 1 > .fverify-div-w1.json
	-$(GO) run ./cmd/modelcheck -algo alg2 -ids 3,1,2 -faults dup -max-states 20000 \
		-json -workers 4 > .fverify-div-w4.json
	cmp .fverify-div-w1.json .fverify-div-w4.json
	grep -q '"ok": false' .fverify-div-w1.json  # the divergent census must abort on budget
	$(GO) test -race -run 'TestSupervisor|TestStallReport|TestErrTimeout' ./internal/live/
	@echo "fault-aware reports identical at workers=1 and workers=4 (finite and budget-aborted); audits clean (3 and 7 nodes); supervisor race-clean"
	@rm -f .fverify-w1.json .fverify-w4.json .fverify-div-w1.json .fverify-div-w4.json

# batch-smoke proves the batch fast path's determinism contract: two
# identical batched runs — Heaviest scheduler, consecutive IDs, flat
# bank — must be byte-identical (including the transition/coalescing
# counts), and the batch path must be race-clean. The event-level
# equivalence against the run-expanded pulse-by-pulse reference is the
# TestBatchedMatchesExpandedReference differential inside the race run.
batch-smoke:
	$(GO) run ./cmd/ringsim -algo alg2 -n 4096 -idgen consecutive -flat -batch \
		-sched heaviest -seed 3 2>/dev/null > .batch-run-a.txt
	$(GO) run ./cmd/ringsim -algo alg2 -n 4096 -idgen consecutive -flat -batch \
		-sched heaviest -seed 3 2>/dev/null > .batch-run-b.txt
	cmp .batch-run-a.txt .batch-run-b.txt
	$(GO) test -race -run 'Batch' ./internal/sim/
	@echo "batched replays byte-identical; batch path race-clean"
	@rm -f .batch-run-a.txt .batch-run-b.txt

# ledger-test runs the election ledger's own tests (~30 s). The ledger is
# a separate module under _ledger/, so ./... never reaches it. Its
# TestWrappersForward keeps the traced scheduler wrappers forwarding the
# optional interfaces the engine's fast paths depend on.
ledger-test:
	cd _ledger && $(GO) test .

# fuzz-smoke gives every fuzz target a short budget; used by CI.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzAlg2Election -fuzztime=10s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzAlg3Election -fuzztime=10s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzChunkAssembler -fuzztime=10s ./internal/defective
	$(GO) test -run='^$$' -fuzz=FuzzFrameCodec -fuzztime=10s ./internal/defective
	$(GO) test -run='^$$' -fuzz=FuzzCheckDistinct -fuzztime=10s ./internal/ring
