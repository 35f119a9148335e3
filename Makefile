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
# full apply for a small edit).
bench: vet
	$(GO) test -run '^$$' -bench 'FanoutScale|AblationFanout|ConcurrentPoll|MirrorSplice|LongPollFanout|DuplexFanout|DeltaApply|DeltaRing|MessageCodec|JoinPath' -benchmem .
	$(GO) run ./cmd/rcb-bench -fanout -out BENCH_fanout.json
	$(GO) run ./cmd/rcb-bench -delivery -out BENCH_delivery.json
	$(GO) run ./cmd/rcb-bench -delta -site msn.com -out BENCH_delta.json
	$(GO) run ./cmd/rcb-bench -scale -out BENCH_scale.json

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

# Brief mutation runs of the native fuzz targets (the checked-in corpora
# under internal/dom/testdata/fuzz, internal/core/testdata/fuzz,
# internal/httpwire/testdata/fuzz and internal/jsescape/testdata/fuzz run on
# every plain `go test`). Each target must be fuzzed in its own invocation.
fuzz:
	$(GO) test ./internal/dom -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 15s
	$(GO) test ./internal/dom -run '^$$' -fuzz '^FuzzDiffApply$$' -fuzztime 15s
	$(GO) test ./internal/dom -run '^$$' -fuzz '^FuzzCanonicalize$$' -fuzztime 15s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzUnmarshal$$' -fuzztime 15s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzUnmarshalDelta$$' -fuzztime 15s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzImportState$$' -fuzztime 15s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzServePoll$$' -fuzztime 15s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzChannelUpstream$$' -fuzztime 15s
	$(GO) test ./internal/httpwire -run '^$$' -fuzz '^FuzzChannelFrame$$' -fuzztime 15s
	$(GO) test ./internal/jsescape -run '^$$' -fuzz '^FuzzEscapeMatchesReference$$' -fuzztime 15s

# Session benchmark smoke: perfbench is its own Go module, so the root
# `go test ./...` never builds it. Runs every workload briefly, tracing off
# and on; its correctness gate is byte-identical convergence to a fresh
# snippet join plus exactly-once actions.
perfsmoke:
	cd perfbench && $(GO) test -count=1 .
