# Convenience targets for the reproduction. Everything is stdlib Go;
# no external dependencies.

GO ?= go

.PHONY: all build vet test lint race cover bench bench-json bench-compare check serve-check chaos-check hang-check fuzz experiments examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Vet plus staticcheck when it is on PATH (CI installs it; local runs
# without it still get the vet half instead of an error).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; ran go vet only"; \
	fi

test:
	$(GO) test ./...

# The race-detector package list; CI's Race step runs this target.
race:
	$(GO) test -race ./internal/network/ ./internal/dht/ ./internal/obs/ ./internal/deflect/ ./internal/check/ ./internal/core/ ./internal/match/ ./internal/suffixtree/ ./internal/serve/ ./internal/cluster/

cover:
	$(GO) test -cover ./...

# Regenerates bench_output.txt (every table/figure benchmark).
bench:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Regenerates BENCH_core.json and BENCH_network.json (machine-readable
# routing and engine numbers).
bench-json:
	$(GO) run ./cmd/dbbench -suite core -out BENCH_core.json
	$(GO) run ./cmd/dbbench -suite network -out BENCH_network.json
	$(GO) run ./cmd/dbbench -suite serve -out BENCH_serve.json

# Perf gate: rerun the suites and compare cell-by-cell against the
# committed baselines without touching them (compare-only mode).
# BENCH_TOL is the fractional ns/op slack; allocation counts always
# gate at baseline + max(8, 25%). CI overrides BENCH_TOL because
# cross-machine ns/op is noisy — the allocs gate is the hard one.
BENCH_TOL ?= 0.75
bench-compare:
	$(GO) run ./cmd/dbbench -suite core -compare BENCH_core.json -tol-ns $(BENCH_TOL)
	$(GO) run ./cmd/dbbench -suite network -compare BENCH_network.json -tol-ns $(BENCH_TOL)
	$(GO) run ./cmd/dbbench -suite serve -compare BENCH_serve.json -tol-ns $(BENCH_TOL)

# The differential-verification sweep: every oracle on every graph
# with at most 4096 vertices (CI's standing gate; see internal/check).
# dbcheck shards each oracle across GOMAXPROCS workers by default with
# a deterministic merge; -workers sets only concurrency, never the
# verdict.
check:
	$(GO) run ./cmd/dbcheck -mode all

# The adversarial serving gate: chaos oracle sweep plus the hang-bug
# regression tests under the race detector.
chaos-check: hang-check
	$(GO) run ./cmd/dbcheck -mode chaos

# The hang-bug regression tests (mid-frame severs, stalled peers, slow
# readers, storms) under the race detector; CI runs this target too.
hang-check:
	$(GO) test -race -run 'Chaos|Peer|SlowReader|WriteTimeout|StalledPeer|Storm|SingleShard|Eviction' ./internal/serve/ ./internal/cluster/ ./internal/check/

# In-process load check of the route-query server: runs the closed- and
# open-loop generators against a real server and fails on any violation
# of the outcome-conservation invariant (sent = answered+degraded+shed).
serve-check:
	$(GO) run ./cmd/dbserve -selfcheck -clients 4 -requests 200 -hotset 64
	$(GO) run ./cmd/dbserve -selfcheck -rate 5000 -duration 500ms -hotset 64
	$(GO) run ./cmd/dbserve -selfcheck -shards 1 -queue 16 -rate 4000 -duration 300ms -hotset 64 -batch 64 -deadline 20ms
	$(GO) run ./cmd/dbserve -selfcheck -clients 4 -requests 200 -hotset 64 -trace-sample 16 -flight-size 128

# Short fuzz sessions over every fuzz target, FUZZTIME each; CI's
# fuzz step runs this target.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run xxx -fuzz=FuzzDistanceEquivalence -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run xxx -fuzz=FuzzDirectedAgainstBFS -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run xxx -fuzz=FuzzKernelTierEquivalence -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run xxx -fuzz=FuzzFaultReroute -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run xxx -fuzz=FuzzUnmarshalMessage -fuzztime=$(FUZZTIME) ./internal/network/
	$(GO) test -run xxx -fuzz=FuzzParseRoundTrip -fuzztime=$(FUZZTIME) ./internal/word/
	$(GO) test -run xxx -fuzz=FuzzShiftInverses -fuzztime=$(FUZZTIME) ./internal/word/
	$(GO) test -run xxx -fuzz=FuzzDeflectInvariant -fuzztime=$(FUZZTIME) ./internal/deflect/
	$(GO) test -run xxx -fuzz=FuzzCheckRoutes -fuzztime=$(FUZZTIME) ./internal/check/
	$(GO) test -run xxx -fuzz=FuzzServeDecode -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -run xxx -fuzz=FuzzResponseCodec -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -run xxx -fuzz=FuzzAnchorExpand -fuzztime=$(FUZZTIME) ./internal/serve/

# Regenerates every experiment table (EXPERIMENTS.md source data).
experiments:
	$(GO) run ./cmd/dbstats -table all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/loadbalance
	$(GO) run ./examples/faulttolerance
	$(GO) run ./examples/embedding
	$(GO) run ./examples/selfrouting
	$(GO) run ./examples/dht
	$(GO) run ./examples/sorting
	$(GO) run ./examples/deflection

clean:
	$(GO) clean -testcache
