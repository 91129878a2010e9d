# svdbench build/verify targets. `make check` is the tier-1 verification
# gate: vet, the annlint determinism/zero-alloc/error-hygiene analyzers, build,
# and the full test suite under the race detector (the scheduler fans
# experiment cells across host goroutines, so every test run doubles as a
# concurrency audit).

GO ?= go

.PHONY: all build test test-purego test-widths cross race vet lint check bench bench-pipeline bench-host bench-diff bench-check quick-diff fuzz

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The pure-Go kernel fallback (internal/vec/kernels_noasm.go) is what every
# non-amd64 build runs and no amd64 test run compiles. `test-purego` selects
# it with the purego build tag and runs the kernel property tests, the PQ
# table and batch ADC differential tests, the SQ kernel differential test,
# the lane kernels against L2Sq and the scalar argmin, the neighbour
# selection contract and differential tests, the HNSW, DiskANN and IVF build
# goldens, IVF's search against its scalar reference, k-means seeding and
# assignment against their references and kmeans.Nearest's zero-allocation
# test;
# `cross` compiles the whole tree for arm64 and vets the kernel packages
# there (both work offline).
test-purego:
	$(GO) test -tags purego ./internal/vec ./internal/index ./internal/index/pq ./internal/index/sq ./internal/index/hnsw ./internal/index/diskann ./internal/index/ivf ./internal/index/kmeans

# A lone query fans its segments out over GOMAXPROCS workers; a batch query
# does not. `test-widths` runs the single-query tests under the race
# detector at GOMAXPROCS 1, 2 and 4, three times each, so the fan-out, the
# scratch hand-off and the width-1 loop are each audited.
test-widths:
	$(GO) test -race -cpu 1,2,4 -count=3 -run 'FanOut|ConcurrentSearch|SingleQuery|SearchAllocations' ./internal/vdb

cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/vec ./internal/index/sq

# The race detector slows the simulation-heavy core suite by an order of
# magnitude; give it headroom beyond go test's 10m default.
race:
	$(GO) test -race -timeout 45m ./...

# vet also fails on files gofmt would rewrite (analyzer fixtures under
# testdata/ are exempt: some are deliberately malformed).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l . | grep -v /testdata/ || true); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

# Domain-specific static analysis (see DESIGN.md "Static analysis &
# determinism conventions" and `go run ./cmd/annlint -list`): the
# determinism analyzers (wallclock, seededrand, mapiter, floatcmp), the
# exit-code contract (errwrap) and the fact-based zero-alloc check
# (hotalloc), in one pass over the whole module, internal/analysis included.
lint:
	$(GO) run ./cmd/annlint ./...

check: vet lint build race

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# Async-pipeline microbenchmarks: regenerates the committed
# BENCH_pipeline.json wall-clock trajectory artefact (ROADMAP item 5).
bench-pipeline:
	$(GO) run ./cmd/pipelinebench -out BENCH_pipeline.json

# Host-speed microbenchmarks of the distance kernels and the zero-alloc
# search layer: regenerates the committed BENCH_host.json trajectory
# artefact (ROADMAP item 4). HOSTBENCH_FLAGS=-quick runs the kernel section
# only; CI must not run this target (it overwrites the committed baseline
# bench-diff compares against) — bench-diff is the CI smoke.
bench-host:
	$(GO) run ./cmd/hostbench -out BENCH_host.json $(HOSTBENCH_FLAGS)

# Regression gate over the committed benchmark baselines: reruns the quick
# kernel suite into a scratch file and fails on >20% ns/op growth or any
# allocs/op growth on gated (non-replay) entries.
bench-diff:
	$(GO) run ./cmd/hostbench -quick -out /tmp/bench_host_fresh.json
	$(GO) run ./cmd/benchdiff -base BENCH_host.json -new /tmp/bench_host_fresh.json

# The layered benchmark (bench/, BENCHMARK.json) is its own module, outside
# `./...`: vet and test it against this tree so an API change cannot break it
# unnoticed.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Byte-identity of the experiment tables against another commit — the
# contract of every refactor under internal/sim, ssd and vdb: checks BASE out
# under a temp dir (git archive: nothing is left behind in .git), builds
# annbench on both sides, runs the quick suite on each, drops the host
# wall-clock footers and diffs. Fails on any difference; offline. CI runs it
# on pull requests against their base, so a PR that moves tables on purpose
# fails that step and says why in its description.
# EXPERIMENTS=table2,cache,pipeline,layout is the two-minute short form.
BASE ?= HEAD
EXPERIMENTS ?= all

quick-diff:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && mkdir "$$tmp/base" && \
	git archive $(BASE) | tar -x -C "$$tmp/base" && \
	(cd "$$tmp/base" && $(GO) build -o "$$tmp/annbench.base" ./cmd/annbench) && \
	$(GO) build -o "$$tmp/annbench.new" ./cmd/annbench && \
	for side in base new; do \
		"$$tmp/annbench.$$side" -experiment $(EXPERIMENTS) -quick -quiet -data "" > "$$tmp/$$side.raw" || exit 1; \
		sed '/^== .* done in /d' "$$tmp/$$side.raw" > "$$tmp/$$side.txt"; \
	done && \
	diff "$$tmp/base.txt" "$$tmp/new.txt" && \
	echo "quick-diff: $(EXPERIMENTS) identical to $(BASE) on $$(wc -l < "$$tmp/new.txt") lines"

# Short coverage-guided fuzzing of the node-cache invariants, the three
# index snapshot decoders, the saved-collection loader over them, the .ds
# dataset decoder, the binenc Reader every snapshot decoder reads through,
# the sim kernel's lanes against its event heap, the engine's timer
# replay against its process reference, the HNSW build's re-prune memo
# against a from-scratch reference build and the k-means lane kernel's
# argmin against the scalar first-minimum scan (the seeded corpora
# already run as part of every plain `go test`); each target gets a brief
# budget so CI exercises the mutation engine without open-ended runs.
# Minimising a newly covering input is capped too: on multi-kilobyte
# snapshots the default minute of it would eat the whole budget.
FUZZTIME ?= 15s
FUZZ = $(GO) test -run=^$$ -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s

fuzz:
	$(FUZZ) -fuzz=FuzzLRUVsModel ./internal/storage/nodecache
	$(FUZZ) -fuzz=FuzzStaticVsModel ./internal/storage/nodecache
	$(FUZZ) -fuzz=FuzzDeterministicReplay ./internal/storage/nodecache
	$(FUZZ) -fuzz=FuzzReadFrom ./internal/index/hnsw
	$(FUZZ) -fuzz=FuzzReadFrom ./internal/index/diskann
	$(FUZZ) -fuzz=FuzzReadFrom ./internal/index/ivf
	$(FUZZ) -fuzz=FuzzLoadCollection ./internal/vdb
	$(FUZZ) -fuzz=FuzzDecode ./internal/dataset
	$(FUZZ) -fuzz=FuzzReader ./internal/binenc
	$(FUZZ) -fuzz=FuzzLaneOrder ./internal/sim
	$(FUZZ) -fuzz=FuzzTimerReplay ./internal/vdb
	$(FUZZ) -fuzz=FuzzRepruneMemo ./internal/index/hnsw
	$(FUZZ) -fuzz=FuzzNearest ./internal/index/kmeans
