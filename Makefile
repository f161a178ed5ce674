GO ?= go

.PHONY: build test race vet fuzz verify loc bench bench-parallel bench-mux bench-trace bench-stream bench-load bench-compare load-smoke cover soak soak-failover soak-drift

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Short fuzz pass over the codecs (framing and messages), the stream
# demux on the dialing side and on the accepting side (the one that
# faces untrusted peers), the fault-injected frame path, and what a
# restart reads back from disk: the log framing, the node's log records
# and its manifest checkpoint (the server's records and checkpoint are
# the replication codecs, FuzzRepDecoders).
fuzz:
	$(GO) test ./internal/proto -run=^$$ -fuzz=FuzzReadFrameID -fuzztime=15s
	$(GO) test ./internal/proto -run=^$$ -fuzz=FuzzMessageDecoders -fuzztime=15s
	$(GO) test ./internal/proto -run=^$$ -fuzz=FuzzRepDecoders -fuzztime=15s
	$(GO) test ./internal/proto -run=^$$ -fuzz=FuzzReadStreamFrames -fuzztime=15s
	$(GO) test ./internal/fs -run=^$$ -fuzz=FuzzServeStreamFrames -fuzztime=15s
	$(GO) test ./internal/faultnet -run=^$$ -fuzz=FuzzCorruptedFrames -fuzztime=15s
	$(GO) test ./internal/wal -run=^$$ -fuzz=FuzzWALReplay -fuzztime=15s
	$(GO) test ./internal/fs -run=^$$ -fuzz=FuzzDecodeNodeRecord -fuzztime=15s
	$(GO) test ./internal/fs -run=^$$ -fuzz=FuzzDecodeNodeManifest -fuzztime=15s

# Per-suite benchmark commands. The recording targets below and the
# bench-compare gate invoke these SAME variables, so the suite a baseline
# was recorded with can never drift from the suite the gate reruns.
BENCH_CMD_parallel = $(GO) test -run '^$$' \
	-bench 'Sweep|RunMany|ServerLookup|ServerStats|Sharded|ServerMap|AtomicLog|AccessLog' \
	-benchtime 3x -count 3 -json \
	./internal/experiments ./internal/fs ./internal/metadata ./internal/trace
BENCH_CMD_mux = $(GO) test -run '^$$' -bench 'BenchmarkEndpointPipelined$$' \
	-benchtime 200x -count 3 -json ./internal/proto
BENCH_CMD_trace = $(GO) test -run '^$$' -bench 'BenchmarkEndpointPipelined(Traced)?$$' \
	-benchtime 200x -count 3 -benchmem -json ./internal/proto
BENCH_CMD_stream = $(GO) test -run '^$$' -bench 'BenchmarkStream' \
	-benchtime 1x -count 3 -benchmem -json ./internal/fs
BENCH_CMD_load = $(GO) test -run '^$$' -bench 'BenchmarkLoad' \
	-benchtime 1x -count 3 -json ./internal/fs

# Re-record every gated baseline.
bench: bench-parallel bench-mux bench-trace bench-stream bench-load

# The parallel-engine comparison (ISSUE 3 acceptance): sweep wall-clock
# sequential vs pooled, server ops/sec under concurrent clients, and the
# metadata/access-log microbenchmarks. Speedups require real cores —
# record GOMAXPROCS alongside the numbers.
bench-parallel:
	$(BENCH_CMD_parallel) > BENCH_parallel.json

# The multiplexed transport (ISSUE 5): 8 concurrent callers pipelining on
# one connection against a peer with a simulated service time. (The
# serialized-connection contrast row went with the v1 framing it
# measured.)
bench-mux:
	$(BENCH_CMD_mux) > BENCH_mux.json

# The tracing-overhead comparison (ISSUE 7 acceptance): the pipelined
# mux benchmark with tracing off vs on at the production default 1%
# head-sampling rate (span per call, wire-propagated context). The
# traced variant must stay within a few percent of the plain one.
bench-trace:
	$(BENCH_CMD_trace) > BENCH_trace.json

# The streaming data-plane comparison (ISSUE 8 acceptance): chunked
# streamed reads at 1KB / 1MB / 64MB plus a streamed write and the
# whole-payload RPC read as the contrast row. The allocs/op columns are
# the O(chunk) guard — a 64MB read allocating like the file size means
# the pool regressed.
bench-stream:
	$(BENCH_CMD_stream) > BENCH_stream.json

# The load-harness capacity numbers (ISSUE 10 acceptance): fixed-work
# open/closed-loop runs through the full TCP stack — RPC round-trip
# capacity, mixed traffic, 1000-client fan-in, and accept-path connection
# cycling. Each reports achieved ops/s and read p99 alongside ns/op.
bench-load:
	$(BENCH_CMD_load) > BENCH_load.json

# The CI perf-regression gate: rerun the gated benchmark suites fresh and
# diff them against the committed baselines. Fails on a >25% geomean
# regression; override the threshold with BENCH_MAX_REGRESS (e.g.
# `make bench-compare BENCH_MAX_REGRESS=1.50` on a known-noisy runner).
# -normalize cancels uniform machine-speed differences between the
# machine that recorded the baselines and the one running the gate.
BENCH_MAX_REGRESS ?= 1.25
bench-compare:
	@tmp=$$(mktemp); \
	{ $(BENCH_CMD_parallel) > $$tmp && \
	  $(BENCH_CMD_mux) >> $$tmp && \
	  $(BENCH_CMD_trace) >> $$tmp && \
	  $(BENCH_CMD_stream) >> $$tmp && \
	  $(BENCH_CMD_load) >> $$tmp && \
	  $(GO) run ./cmd/benchdiff -max $(BENCH_MAX_REGRESS) -normalize \
		-fresh $$tmp BENCH_parallel.json BENCH_mux.json BENCH_trace.json BENCH_stream.json BENCH_load.json; }; \
	status=$$?; rm -f $$tmp; exit $$status

# The CI load-smoke lane: 60 seconds of open-loop load from 500 clients
# against a freshly booted in-process cluster (3 replicated metadata
# servers over 3 nodes). Fails on any typed error or a read/write/stream
# p99 above the (deliberately generous, CI-runner-friendly) 2s bound.
load-smoke:
	$(GO) run ./cmd/eevfsload -clients 500 -conns 32 -duration 60s \
		-rate 2000 -writes 0.1 -streams 0.1 -seed 1 \
		-report 10s -fail-on-errors -max-p99 2

# Coverage with a ratchet: the total must never drop below the committed
# COVERAGE_BASELINE. Raise the baseline when coverage durably improves.
# The profile goes to a scratch path by default so `make cover` never
# litters the working tree; CI overrides COVERPROFILE to keep it.
COVERPROFILE ?= /tmp/eevfs-coverage.out
cover:
	$(GO) test -coverprofile=$(COVERPROFILE) ./...
	@total=$$($(GO) tool cover -func=$(COVERPROFILE) | awk '/^total:/ { sub(/%/, "", $$NF); print $$NF }'); \
	base=$$(cat COVERAGE_BASELINE); \
	echo "total coverage: $$total% (baseline $$base%)"; \
	awk -v t="$$total" -v b="$$base" 'BEGIN { exit (t + 1e-9 < b) ? 1 : 0 }' || \
		{ echo "coverage ratchet FAILED: $$total% < baseline $$base%"; exit 1; }

# Randomized simulation soak (DESIGN.md §14): fresh seeds through every
# invariant oracle, plus a live TCP-stack scenario every 50 iterations
# (live scenarios roll replicated server groups and primary kills too).
# Failures shrink to a one-line repro; SOAK_SEED pins the seed base.
SOAK_SEED ?= 1
soak:
	$(GO) run ./cmd/eevfssim -seed $(SOAK_SEED) -n 500 -live 50

# The kill-the-primary battery (DESIGN.md §17): 200 seeded live runs,
# each booting a replicated metadata group and crashing the primary
# mid-workload, under the race detector. Convergence failures shrink to
# a one-line repro.
soak-failover:
	$(GO) run -race ./cmd/eevfssim -seed $(SOAK_SEED) -live-failover 200

# The adaptive-vs-NPF oracle battery (DESIGN.md §20): 200 seeded
# scenarios, every one steered into the online adaptive arm on a
# drifting workload, under the race detector. The dominance and
# transition-budget oracles judge each run; failures shrink to a
# one-line repro.
soak-drift:
	$(GO) run -race ./cmd/eevfssim -seed $(SOAK_SEED) -drift 200

# The full pre-merge gate: vet + build + the whole suite under the race
# detector (the chaos tests in internal/fs exercise real concurrency).
verify: vet build race

# Non-test Go lines per package and in total: the number ROADMAP item 5
# ("delete what the system does not need") is judged by. CI prints it,
# and on a pull request each package's delta against the base commit.
loc:
	@find . -name '*.go' ! -name '*_test.go' | xargs wc -l | \
		awk '$$2 != "total" { sub(/^\.\//, "", $$2); if (!sub(/\/[^\/]*$$/, "", $$2)) $$2 = "."; n[$$2] += $$1; t += $$1 } \
		END { for (p in n) printf "%7d  %s\n", n[p], p; printf "%7d  total\n", t }' | sort -k2
