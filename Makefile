GO ?= go

.PHONY: build test vet race bench fuzz chaos scale perfsmoke

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# perfbench is its own module, so the root `go vet ./...` never sees it;
# it compiles against the Agent surface, so it is vetted too.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet .

# Concurrency regression gate: the single-flight serve path (content and
# delta), the sharded agent locks, and the long-poll delivery hub must stay
# race-clean across every package that drives them.
race: vet
	$(GO) test -race ./...

# Serve-path, push-path, delta and join-path (Figure 4 codec, GET / to
# applied snapshot) benchmarks plus the JSON snapshots future
# PRs compare against: BENCH_fanout.json (serve scaling), BENCH_delivery.json
# (interval vs long-poll staleness) and BENCH_delta.json (incremental vs
# full apply for a small edit). The fanout, delta and scale snapshots are
# taken at GOMAXPROCS=1, as committed; delivery runs at the host's value.
bench: vet
	$(GO) test -run '^$$' -bench 'FanoutScale|AblationFanout|ConcurrentPoll|MirrorSplice|LongPollFanout|DuplexFanout|DeltaApply|DeltaRing|MessageCodec|JoinPath' -benchmem .
	GOMAXPROCS=1 $(GO) run ./cmd/rcb-bench -fanout -out BENCH_fanout.json
	$(GO) run ./cmd/rcb-bench -delivery -out BENCH_delivery.json
	GOMAXPROCS=1 $(GO) run ./cmd/rcb-bench -delta -site msn.com -out BENCH_delta.json
	GOMAXPROCS=1 $(GO) run ./cmd/rcb-bench -scale -out BENCH_scale.json

# Fault-injection harness: seeded netsim chaos scenarios (lossy/mobile
# links, server restarts, link flaps, forced disconnects) asserting
# byte-identical convergence, exactly-once actions, and close-reason
# discipline — race-enabled, full sweep, including the durability families
# (kill-restore from a checkpoint, live agent handover, partitions). CI runs
# the -short smoke slice; this target is the long local/nightly form. The -timeout
# guarantees a goroutine dump instead of a silent CI hang.
chaos: vet
	$(GO) test ./internal/core -race -count=1 -run 'TestChaos' -timeout 600s

# Scale-out scenario lab: every family (flash-crowd joins, thundering-herd
# wakes, disconnect/rejoin churn, long-haul lossy links, search co-browsing
# roles, writer turns across a handover) at four-digit fleet size, race-
# enabled. CI runs the -short small-N smoke of the same harness; SCENLAB_N
# overrides the fleet size.
scale: vet
	SCENLAB_N=$${SCENLAB_N:-1000} $(GO) test ./internal/scenlab -race -count=1 -timeout 1800s -v

# Brief mutation runs of every native fuzz target, FUZZTIME each (the
# checked-in corpora under internal/*/testdata/fuzz run on every plain
# `go test`). The targets are discovered per package with `go test -list`,
# so a new Fuzz function needs no edit here or in CI; each target must be
# fuzzed in its own invocation.
FUZZTIME ?= 15s

fuzz:
	@set -e; \
	listed=$$($(GO) test -list '^Fuzz' ./...); \
	targets=$$(echo "$$listed" | awk '/^Fuzz/ { t[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, t[i]; n = 0 }'); \
	[ -n "$$targets" ] || { echo "fuzz: no Fuzz targets found" >&2; exit 1; }; \
	echo "$$targets" | while read -r pkg target; do \
		echo "fuzz: $$pkg $$target ($(FUZZTIME))"; \
		$(GO) test "$$pkg" -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME); \
	done

# Session benchmark smoke: perfbench is its own Go module, so the root
# `go test ./...` never builds it. Runs every workload briefly, tracing off
# and on; its correctness gate is byte-identical convergence to a fresh
# snippet join plus exactly-once actions.
perfsmoke:
	cd perfbench && $(GO) test -count=1 .
