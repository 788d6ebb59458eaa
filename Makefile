# Convenience targets for the reproduction. Everything is stdlib Go;
# no external dependencies.

GO ?= go

.PHONY: all build vet test lint race cover bench bench-json bench-compare check serve-check cluster-smoke chaos-check hang-check fuzz experiments examples clean

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

# Three dbserve cluster nodes over TCP: node 1's -status must list 3
# members, dbserve -probe through node 1 must get a full-fidelity
# answer to every query, and at least one probe must ride the fabric
# (dn_cluster_forwarded_total summed over the three /metrics pages is
# at least 1). Needs jq and curl; CI's cluster-smoke job runs it.
SMOKE_DIR ?= .cluster-smoke
cluster-smoke:
	$(GO) build -o $(SMOKE_DIR)/dbserve ./cmd/dbserve
	@set -e; bin=$(SMOKE_DIR)/dbserve; node="-idlen 10 -replication 1"; \
	trap 'kill $$n1 $$n2 $$n3 2>/dev/null; wait' EXIT; \
	$$bin $$node -id 0000000000 -addr 127.0.0.1:4700 -peer 127.0.0.1:4710 -debug-addr 127.0.0.1:4720 & n1=$$!; \
	for i in $$(seq 50); do $$bin -status 127.0.0.1:4710 >/dev/null 2>&1 && break; sleep 0.1; done; \
	$$bin $$node -id 0101010101 -addr 127.0.0.1:4701 -peer 127.0.0.1:4711 -debug-addr 127.0.0.1:4721 -join 127.0.0.1:4710 & n2=$$!; \
	$$bin $$node -id 1100110011 -addr 127.0.0.1:4702 -peer 127.0.0.1:4712 -debug-addr 127.0.0.1:4722 -join 127.0.0.1:4710 & n3=$$!; \
	for i in $$(seq 50); do \
		$$bin -status 127.0.0.1:4710 2>/dev/null | jq -e '.membership.members | length == 3' >/dev/null && break; sleep 0.1; \
	done; \
	$$bin -status 127.0.0.1:4710 | jq -e '.membership.members | length == 3'; \
	$$bin -probe -addr 127.0.0.1:4700; \
	total=$$(curl -sf http://127.0.0.1:4720/metrics http://127.0.0.1:4721/metrics http://127.0.0.1:4722/metrics \
		| awk '$$1 == "dn_cluster_forwarded_total" { sum += $$2 } END { print sum+0 }'); \
	echo "summed dn_cluster_forwarded_total = $$total"; \
	test "$$total" -ge 1

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
