# Single entry point for local runs and CI (.github/workflows/ci.yml calls
# these targets, so the two can never drift).

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test allocs race rts-stress queryd-stress core-stress fmt vet lint fuzz-smoke bench-selftest bench-measured bench-pairs bench-ab bench-scan load-smoke ci

all: build

# The cross builds keep memsim's non-unix heap fallback (map_other.go)
# compiling beside the mmap path the host build takes.
build:
	$(GO) build ./...
	GOOS=windows GOARCH=amd64 $(GO) build ./...
	GOOS=darwin GOARCH=arm64 $(GO) build ./...

test:
	$(GO) test ./...

# The served-path allocation ratchet (TestServedAllocations), repeated at
# several GOMAXPROCS: a stray allocation that only some runs pay (one
# timing-dependent branch) fails a single run by chance, five runs at each
# of three -cpu values rarely. Not under -race: the race detector's
# sync.Pool drops make allocation counts irreproducible, and the test skips
# itself there. With it runs the build-memory ratchet
# (TestBuildDatasetAllocations): a dataset build may allocate on the Go heap
# at most 0.75 x its packed payload, which is mapped outside the heap, so
# no column is staged as a plain table-length slice. And the graph build's
# (TestBuildGraphAllocations): a graph-only dataset may allocate at most
# 11 B per edge, the generator's edge list and the begin arrays' prefix
# sums, so no plain CSR is built on the heap.
allocs:
	$(GO) test -count=5 -cpu 1,2,4 -run '^(TestServedAllocations|TestBuildDatasetAllocations|TestBuildGraphAllocations)$$' ./internal/queryd

race:
	$(GO) test -race ./...

# The loop engine's claim, launch and yield races are timing-dependent and
# internal/rts is the only concurrency kernel in the repo: one -race pass
# is thin cover, so run its tests twenty times over.
rts-stress:
	$(GO) test -race -count=20 ./internal/rts

# Whether an identical arrival joins a flight, finds its answer cached or
# executes itself depends on when the leader lands, which is
# timing-dependent in the same way: repeat the flight tests under -race,
# with the concurrent runs of one dataset's PageRanker, which lease their
# rank arrays from its free list, with concurrent clients adding array
# telemetry to the served arrays' lock-free counter blocks while /arrays
# and /metrics read them (and the registry's own concurrent add/snapshot
# test, which checks no snapshot reads a selectivity above 1), and with
# concurrent clients whose every reply outcome must land once in each
# per-query series (about 30 s).
queryd-stress:
	$(GO) test -race -count=5 -run 'SharedScan|Flight|Followers|ProfileShared|ProfileCache|ZoneWalkUnder|PageRankerLeases|ServedArrayTelemetry|OneRecordPerQueryConcurrent|ArrayRegistryConcurrent' ./internal/queryd ./internal/analytics ./internal/obs

# A smart array's representation is one atomically swapped snapshot:
# Reencode and Migrate publish a new one while readers finish on theirs,
# and the old payload is unmapped once no reader pin is held (memsim's
# grace rule), so a reader left unpinned faults. Whether a reader ever
# sees a half-published swap or an unmapped region is timing-dependent in
# the same way, so repeat the swap and grace-rule tests under -race — in
# memsim, core and colstore, whose scan passes keep per-worker state
# across live re-encodes — with core's typed read and write views
# (TestTypedWordView*, TestTypedWriteView: WordsAs and WriteAs over the
# race build's heap payload and, below, over mappings). Race builds keep payload on the Go heap, where
# the detector can see races on its words, so the same tests run again
# without -race, on mappings, where reading an unmapped region faults;
# interop's iterators, which pin until the guest frees them, ride along.
core-stress:
	$(GO) test -race -count=10 -run 'Reencode|Migrate|Replica|View|Retire|Pin' ./internal/memsim ./internal/core ./internal/colstore
	$(GO) test -count=10 -run 'Reencode|Migrate|Replica|View|Retire|Pin|Iterator' ./internal/memsim ./internal/core ./internal/colstore ./internal/interop

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Static analysis beyond vet, plus a syntax check of the bash scripts no
# CI target runs (bench-pairs and bench-ab take minutes). Skips
# gracefully when staticcheck is not on PATH (no-network sandboxes); the
# CI lint job installs a pinned version.
lint:
	bash -n scripts/bench_pairs.sh
	bash -n scripts/bench_ab.sh
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (CI runs it; install with:"; \
		echo "      go install honnef.co/go/tools/cmd/staticcheck@2024.1.1)"; \
	fi

# Run every fuzz target briefly so corpus regressions surface in PRs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/bitpack
	$(GO) test -run '^$$' -fuzz '^FuzzCmpMask$$' -fuzztime $(FUZZTIME) ./internal/bitpack
	$(GO) test -run '^$$' -fuzz '^FuzzGather$$' -fuzztime $(FUZZTIME) ./internal/bitpack
	$(GO) test -run '^$$' -fuzz '^FuzzReadEdgeList$$' -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzJNIDispatch$$' -fuzztime $(FUZZTIME) ./internal/interop
	$(GO) test -run '^$$' -fuzz '^FuzzEncodingRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/encoding

# The measured benchmark (BENCHMARK.json, benchmark/) is a Go module of
# its own, so the root `go vet ./...` and `go test ./...` never see the
# harness: bench-selftest vets it and runs its own fast tests (catalog vs
# BENCHMARK.json, oracle, workload generators) against this tree.
bench-selftest:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Convenience: the whole measured suite (~3.5 min; see benchmark/README.md).
# Not a CI target — timing on shared runners is not evidence.
bench-measured:
	bash benchmark/run.sh

# Paired parent/change runs of one workload, the evidence behind any
# "faster" or "did not move" claim (scripts/bench_pairs.sh; about a
# minute per pair). Not a CI target, for the same reason.
PAIRS ?= 10
bench-pairs:
	@test -n "$(WORKLOAD)" && test -n "$(PARENT)" || \
		{ echo "usage: make bench-pairs WORKLOAD=<name> PARENT=<rev> [PAIRS=10]"; exit 2; }
	bash scripts/bench_pairs.sh $(WORKLOAD) $(PARENT) $(PAIRS)

# Alternated in-process rounds of go test benchmarks, parent test binary
# against this checkout's (scripts/bench_ab.sh): per-round ns/op, both
# medians and the rounds the change won — the "N of N alternated rounds"
# a kernel or core change reports before paying for bench-pairs. Not a CI
# target, for the same reason.
ROUNDS ?= 5
CPU ?= 2
BENCHTIME ?= 1s
bench-ab:
	@test -n "$(PARENT)" && test -n "$(PKG)" && test -n "$(BENCH)" || \
		{ echo "usage: make bench-ab PARENT=<rev> PKG=<pkg> BENCH=<regex> [ROUNDS=5] [CPU=2] [BENCHTIME=1s]"; exit 2; }
	bash scripts/bench_ab.sh $(PARENT) $(PKG) '$(BENCH)' $(ROUNDS) $(CPU) $(BENCHTIME)

# The predicated-scan sizing benchmarks, in process: bitpack's compare,
# masked-sum and chunk-decode kernels per width (ns/elem next to a
# same-run plain 64-bit sum, and the sparse/dense sweep behind
# MaskSparseCutoff; Unpack at the straddling widths — 17 is a "V+E"
# graph's edge width — and at 32 bits, the served graph's edge width that
# View.Read decodes PageRank's in-edges at), every codec's
# sum, masked sum, masked max and compare-and-count through its
# ChunkCodec (BenchmarkCodecFold), the four scan_unique plan shapes
# through the query handler on the served 4 Mi-row dataset, then three
# MIN/MAX plans through colstore's zone walk (its best case, a uniform
# target, and the case that degrades to a whole pass), the scan_unique
# shapes from two callers (distinct thresholds, identical plans — what
# coalescing saves), then the graph_rank request
# (BenchmarkServedPageRank: gathers and range reads over the CSR, with the
# B/op and allocs/op one served pagerank costs), the
# zone-pruned selective scan (BenchmarkPrunedScan) — the paths where a
# per-call codec dispatch would show — and colstore's own predicated scan
# and grouped fold below the query handler (BenchmarkAggregate2Pred*,
# BenchmarkGroupBy2Pred: the mask build and folds through each worker's
# column views). Run it on both trees when sizing a kernel or core change,
# before paying for bench-pairs. Not a CI target.
bench-scan:
	$(GO) test ./internal/bitpack -run '^$$' -bench 'CmpMask|SumMasked|MaskCutoff|Unpack' -benchtime 20x -count 5 -cpu 1
	$(GO) test ./internal/encoding -run '^$$' -bench CodecFold -benchtime 20x -count 5 -cpu 1
	$(GO) test ./internal/queryd -run '^$$' -bench ScanUniqueTemplates -benchtime 20x -count 5 -cpu 2
	$(GO) test ./internal/queryd -run '^$$' -bench ZoneOrderedExtremes -benchtime 200x -count 5 -cpu 2
	$(GO) test ./internal/queryd -run '^$$' -bench ScanUniqueTwoCallers -benchtime 200x -count 5 -cpu 2
	$(GO) test ./internal/queryd -run '^$$' -bench ServedPageRank -benchtime 200x -count 5 -cpu 2
	$(GO) test ./internal/core -run '^$$' -bench PrunedScan -count 5 -cpu 1
	$(GO) test ./internal/colstore -run '^$$' -bench 'Aggregate2Pred|GroupBy2Pred' -count 5 -cpu 2

# Query-service load gate: start saserve on a small dataset, drive it with
# concurrent clients, and assert zero 5xx, non-zero qps, and a generous
# p99 bound (see scripts/load_smoke.sh for the knobs).
load-smoke:
	sh scripts/load_smoke.sh

# Everything CI runs, in one shot. Targets run to completion even after a
# failure so one run reports every broken target, and the summary at the
# end names the ones that failed.
CI_TARGETS := build vet fmt lint test allocs race rts-stress queryd-stress core-stress fuzz-smoke bench-selftest load-smoke

ci:
	@failed=""; \
	for t in $(CI_TARGETS); do \
		echo "==> make $$t"; \
		$(MAKE) --no-print-directory $$t || failed="$$failed $$t"; \
	done; \
	if [ -n "$$failed" ]; then \
		echo ""; echo "ci: FAILED targets:$$failed"; exit 1; \
	fi; \
	echo ""; echo "ci: all targets passed ($(CI_TARGETS))"
