# byzex build / verification entry points.
#
#   make check       - tier-1 gate: lint, build everything, full test suite,
#                      the same suite again under -race (a test the race
#                      detector cannot run skips itself and says why)
#   make lint        - gofmt -l (fails on unformatted files) + go vet ./... +
#                      a GOOS=darwin build of every package
#   make test        - plain test run (no race detector)
#   make bench       - the benchmark ledger (bench/run.sh: four pinned
#                      workloads, end-to-end and per-layer metrics, one JSON
#                      line each; see BENCHMARK.json)
#   make baexp       - regenerate every evaluation table
#   make trace-smoke - end-to-end trace pipeline check (basim -trace → batrace)
#   make faults      - fault-injection scenario matrix and the link-delay
#                      contract under -race (part of check)
#   make slo         - open-loop SLO gate: Poisson load against a self-hosted
#                      server must meet a generous p99 (part of check)
#   make crash       - crash-recovery drill: SIGKILL a journaled server
#                      mid-load, restart it, verify replay (part of check)
#   make upgrade     - rolling-upgrade drill: roll a two-server fleet across
#                      wire frame versions under load (part of check)
#   make search      - adversary-search gate vs the Theorem 1/2 bounds
#                      (best-found below bound or a broken correct protocol
#                      fails; strawmen must be found broken); prints the
#                      gap-to-bound atlas; SEARCH_BUDGET=n sets the budget
#                      (make check uses a short one)
#   make fuzz        - run every fuzz target on a short fixed budget
#   make ab REV=<rev> WORKLOAD=<name> [PAIRS=10]
#                    - alternating parent/candidate ledger runs of this
#                      checkout against REV (scripts/ab.sh): quartiles, pair
#                      wins and PASS/FAIL per end-to-end metric
#   make parity REV=<rev>
#                    - behaviour parity of this checkout against REV
#                      (scripts/parity.sh): basim over every registry row ×
#                      all eight adversaries × both transports × three fault
#                      plans (none, a crash, delivery faults), baexp text
#                      and CSV, baattack's atlas and scripted attacks, and
#                      baload -selfhost -verify over every served row ×
#                      memory, tcp and tcp with a 2 ms link delay, compared
#                      byte for byte
#   make allocs      - where a run allocates: core.TestRunAllocationBudgets
#                      (cold and warm in-memory runs), then
#                      transport.TestMeshRunAllocationBudget (warm mesh
#                      instances), each under -memprofilerate 1, with
#                      go tool pprof's top allocation sites by object count
#                      (not part of check)
#   make loc         - non-test Go lines outside bench/, per package and in
#                      total (the number CHANGES.md and the ROADMAP's
#                      subtraction target are stated in), the _test.go
#                      total, and the number of packages `go list ./...` finds

GO ?= go
GOFMT ?= gofmt

.PHONY: check lint test bench ab parity search baexp trace-smoke faults slo crash upgrade fuzz loc allocs

check: lint faults
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -race -count=1 ./...
	$(MAKE) crash
	$(MAKE) upgrade
	$(MAKE) slo
	$(MAKE) search SEARCH_BUDGET=48

# The durability gate: a journaled server is SIGKILLed mid-load (a forked
# child process — an in-process drain can never tear a write), then restarted
# over the same journal directory. The drill asserts the recovered watermark
# clears every journaled id, every pending admission replays byte-identically
# (trace-pinned), and live traffic resumes with fresh ids past the watermark.
crash:
	$(GO) test -race -count=1 ./cmd/baserve/ -run 'TestServeCrashRecovery'

# The rolling-upgrade gate: two journaled baserve processes on the TCP
# transport, one pinned to the previous frame version; it is drained and
# restarted at the current version while its sibling serves uninterrupted,
# and instance ids continue exactly past the drain checkpoint. The same roll
# is repeated at warm-mesh granularity (SetPeerWireVersion mid-mesh).
upgrade:
	$(GO) test -race -count=1 ./cmd/baserve/ -run 'TestServeRollingUpgrade'

# The serving SLO gate: a short open-loop run (Poisson arrivals, latency
# measured from each scheduled arrival, rejections shed) against a
# self-hosted sharded server. -slo-p99 makes the run exit non-zero on a
# violation; the bound is deliberately generous — this catches
# pipeline-level latency regressions (a stuck sequencer, an accidental
# closed-loop retry), not machine noise.
slo:
	$(GO) run ./cmd/baload -selfhost -protocol alg1-multi -t 3 \
		-shards 4 -batch 8 -c 16 -mod 64 \
		-rate 400 -duration 3s -seed 1 -slo-p99 2s

# Formatting and static-analysis gate. gofmt -l prints offending files; the
# shell turns any output into a failure so CI catches drift. The darwin build
# (pure Go, needs no network) keeps the `!linux` half of a build-tagged pair
# compiling: internal/transport/waker_other.go is never built here otherwise.
lint:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	GOOS=darwin $(GO) build ./...

# The fault-injection gate: every numbered algorithm against every fault
# family (crash/drop/dup/reorder/delay/partition) over real TCP, in-budget
# plans must agree and replay byte-identically, over-budget plans must fail
# typed, and the TCP trace must equal the in-memory one minus its verify-*
# events; the omission faults' crash rules (silent, crash) must leave every
# correct processor as the node wrappers they replaced did. Also run
# standalone for a quick transport-layer signal. The second
# line is the link-delay hold's contract (never early per link, cancellable,
# muted senders not waited on twice) and its waker's, a warm mesh's
# message lifetime (payloads kept from one epoch unchanged by the next, a
# stale epoch's frame dropped before it carves), and early stopping's (a
# run ends at the phase its correct processors halted by, a halted sender
# stalls no receiver, a peer pinned to an older frame version changes
# nothing), five times over. The third is the warm run path's: a reused
# core.Runner, pooled RunSim and warm mesh must equal fresh runs, ten times
# over.
faults:
	$(GO) test -race -count=1 ./internal/transport/ ./internal/cli/ -run 'TestScenarioMatrix|TestCrashAtPhaseK|TestOverBudgetFaultsFailTyped|TestEngineTCPParity|TestOmissionPlansMatchWrappers'
	$(GO) test -race -count=5 ./internal/transport/ -run 'LinkDelay|Waker|KeptPayloadsOutliveEpochs|ReusedPeerDropsStaleEpoch|Halt|MixedVersions'
	$(GO) test -race -count=10 -run 'Runner|RunSim' ./internal/core/ ./internal/service/ ./internal/transport/

test:
	$(GO) test ./...

# The benchmark ledger: bench/run.sh builds the bench/ program from this
# checkout and runs its four pinned workloads, printing one JSON line of
# end-to-end and per-layer metrics per workload (BENCHMARK.json is the
# contract). BENCH_001..009.json and BENCH_BASELINE.json are the one-shot
# per-PR suites this replaced, kept as read-only history.
bench:
	bash bench/run.sh

# The A/B protocol every performance claim in CHANGES.md is stated in.
PAIRS ?= 10
ab:
	bash scripts/ab.sh $(REV) $(WORKLOAD) $(PAIRS)

# The parity check every behaviour-preserving change states in CHANGES.md:
# traces, metrics and stdout of a fixed basim/baexp/baattack/baload matrix, this
# checkout against REV, byte for byte. Prints k/k identical, or every command
# that differs and d/k differ (exit 1).
parity:
	bash scripts/parity.sh $(REV)

baexp:
	$(GO) run ./cmd/baexp

# The adversary-search gate: the search minimizes correct-sender signatures
# and messages per registry protocol, prints the gap-to-bound atlas (best
# found vs core.SigLowerBound / core.MsgLowerBound) and exits 1 when a
# correct protocol is broken or undercuts its Theorem 1/2 bound, or a
# strawman survives unbroken. A fixed -seed makes the output reproduce
# byte-identically. `make check` runs it at a short budget. The binary is
# built inside the checkout, so two checkouts never share it.
SEARCH_BUDGET ?= 240
search:
	$(GO) build -o .bench_build/baattack ./cmd/baattack
	.bench_build/baattack -search -protocol all -objective both \
		-budget $(SEARCH_BUDGET) -seed 1

# Short fixed-budget fuzzing of every decoder that touches attacker-supplied
# bytes: the wire codec (seeded from captured real-run envelopes) and the
# signature-chain unmarshalers. `go test -fuzz` accepts one target per run.
fuzz:
	$(GO) test ./internal/wire/ -run '^$$' -fuzz 'FuzzFrameBodyDecode$$' -fuzztime 20s
	$(GO) test ./internal/wire/ -run '^$$' -fuzz 'FuzzReaderPrimitives$$' -fuzztime 10s
	$(GO) test ./internal/sig/ -run '^$$' -fuzz 'FuzzUnmarshalSignedValue$$' -fuzztime 10s
	$(GO) test ./internal/sig/ -run '^$$' -fuzz 'FuzzUnmarshalSignedBytes$$' -fuzztime 10s
	$(GO) test ./internal/sig/ -run '^$$' -fuzz 'FuzzChainVerifyNeverAcceptsUnsigned$$' -fuzztime 10s

# End-to-end smoke of the trace pipeline: run basim with -trace (which
# itself fails if the trace disagrees with metrics.Report), then parse and
# summarize the JSONL with batrace. Exercises both transports.
trace-smoke:
	$(GO) build -o /tmp/basim ./cmd/basim
	$(GO) build -o /tmp/batrace ./cmd/batrace
	/tmp/basim -protocol alg1 -t 3 -adversary split-brain -trace /tmp/byzex-smoke-mem.jsonl -metrics /tmp/byzex-smoke-mem-metrics.json
	/tmp/batrace -counts -report /tmp/byzex-smoke-mem-metrics.json /tmp/byzex-smoke-mem.jsonl
	/tmp/basim -protocol dolev-strong -n 8 -t 2 -transport tcp -adversary silent -trace /tmp/byzex-smoke-tcp.jsonl
	/tmp/batrace /tmp/byzex-smoke-tcp.jsonl

# The allocation profiles behind the pins of core.TestRunAllocationBudgets
# and transport.TestMeshRunAllocationBudget: every allocation of their runs
# is sampled (-memprofilerate 1), and pprof lists the sites by allocated
# objects, the in-memory runs first, then the warm mesh's instances (its
# set-up — listeners, dials, readers — included). The profiles and the test
# binaries stay in .bench_build/.
allocs:
	mkdir -p .bench_build
	$(GO) test ./internal/core -run '^TestRunAllocationBudgets$$' -count=1 \
		-memprofile .bench_build/allocs.mem -memprofilerate 1 -o .bench_build/core.test
	$(GO) tool pprof -sample_index=alloc_objects -top .bench_build/core.test .bench_build/allocs.mem
	$(GO) test ./internal/transport -run '^TestMeshRunAllocationBudget$$' -count=1 \
		-memprofile .bench_build/mesh_allocs.mem -memprofilerate 1 -o .bench_build/transport.test
	$(GO) tool pprof -sample_index=alloc_objects -top .bench_build/transport.test .bench_build/mesh_allocs.mem

# Non-test Go lines outside bench/: one row per package directory, then the
# total — the count CHANGES.md reports — the same total over _test.go files,
# and the package count of
# `go list ./...` (bench/ included). Dot directories
# (.bench_build holds whole parent trees after `make ab`) are not the repo's.
loc:
	@for d in $$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.*' -exec dirname {} \; | sort -u); do \
		printf '%6d %s\n' "$$(find $$d -maxdepth 1 -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)" "$$d"; \
	done
	@printf '%6d total\n' "$$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.*' | xargs cat | wc -l)"
	@printf '%6d _test.go total\n' "$$(find . -name '*_test.go' -not -path './bench/*' -not -path './.*' | xargs cat | wc -l)"
	@printf '%6d packages\n' "$$($(GO) list ./... | wc -l)"
