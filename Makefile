# svdbench build/verify targets. `make check` is the tier-1 verification
# gate: vet, the annlint determinism/zero-alloc/error-hygiene analyzers, build,
# and the full test suite under the race detector (the scheduler fans
# experiment cells across host goroutines, so every test run doubles as a
# concurrency audit).

GO ?= go

.PHONY: all build test test-purego test-widths quick-widths quick-kernels cross race vet lint check bench bench-host bench-diff bench-check quick-diff fuzz

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

# Every host parallel loop is par.For, whose width follows GOMAXPROCS.
# `test-widths` runs the tests of the loop itself, of a lone query's fan-out
# and its scratch hand-off, of DiskANN's and SPANN's batches (BatchRun's
# scratch per worker), of the batched graph insert, of the page layout a
# fresh DiskANN index packs under concurrent first searches and of the
# experiment grid under the race detector at GOMAXPROCS 1, 2 and 4,
# three times each, so the helpers and the width-1 loop are each audited.
# It then runs the loop's own tests twenty times more under the race
# detector with a short timeout: a hand-off to a resident worker that is
# lost hangs a call, and fails here in two minutes.
test-widths:
	$(GO) test -race -cpu 1,2,4 -count=3 -run 'FanOut|ConcurrentSearch|SingleQuery|SearchAllocations|SearchBatchMatchesSequential$$|SearchBatchMatchesSearch$$|InsertBatched|Scheduler|^TestFor' ./internal/par ./internal/index ./internal/index/diskann ./internal/index/spann ./internal/core ./internal/vdb
	$(GO) test -race -count=20 -timeout 2m -run '^TestFor' ./internal/par

# The quick suite's output must not depend on how many workers the host
# loops get: `quick-widths` runs it at GOMAXPROCS 1 and 4, drops the host
# wall-clock footers as quick-diff does, and diffs the two. Nor may a table
# depend on which experiment ran first, now that experiments share memoised
# run cells: it then runs the three extensions that share the most cells
# (layout, pipeline, cache) alone and in reverse order, and diffs each of
# their sections against the same section of the GOMAXPROCS 4 suite.
quick-widths:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/annbench" ./cmd/annbench && \
	for procs in 1 4; do \
		GOMAXPROCS=$$procs "$$tmp/annbench" -experiment all -quick -quiet -data "" > "$$tmp/$$procs.raw" || exit 1; \
		sed '/^== .* done in /d' "$$tmp/$$procs.raw" > "$$tmp/$$procs.txt"; \
	done && \
	diff "$$tmp/1.txt" "$$tmp/4.txt" && \
	echo "quick-widths: GOMAXPROCS 1 and 4 identical on $$(wc -l < "$$tmp/4.txt") lines" && \
	"$$tmp/annbench" -experiment layout,pipeline,cache -quick -quiet -data "" > "$$tmp/order.txt" && \
	for id in layout pipeline cache; do \
		for side in 4 order; do \
			awk -v id=$$id '/^== /{on = ($$2 == id)} on' "$$tmp/$$side.txt" | sed '/^== .* done in /d' > "$$tmp/$$side.$$id"; \
		done; \
		test -s "$$tmp/order.$$id" && diff "$$tmp/4.$$id" "$$tmp/order.$$id" || exit 1; \
	done && \
	echo "quick-widths: layout, pipeline and cache alone in reverse order match the suite"

# Every distance kernel must equal its scalar reference bit for bit, so the
# whole quick suite must print the same tables whichever kernels it was
# built with: `quick-kernels` builds annbench three times — the default
# assembly kernels, the pure-Go fallback (-tags purego) and GOAMD64=v3 (where
# the compiler may fuse Go arithmetic into FMAs) — runs the suite on each,
# drops the host wall-clock footers and diffs the second and third against
# the first. Tables print rounded values, so a one-ulp drift can pass here
# and fail only the goldens; this gate reaches what they do not: recording,
# replay, recall and every table.
quick-kernels:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/annbench.default" ./cmd/annbench && \
	$(GO) build -tags purego -o "$$tmp/annbench.purego" ./cmd/annbench && \
	GOAMD64=v3 $(GO) build -o "$$tmp/annbench.v3" ./cmd/annbench && \
	for build in default purego v3; do \
		"$$tmp/annbench.$$build" -experiment all -quick -quiet -data "" > "$$tmp/$$build.raw" || exit 1; \
		sed '/^== .* done in /d' "$$tmp/$$build.raw" > "$$tmp/$$build.txt"; \
	done && \
	diff "$$tmp/default.txt" "$$tmp/purego.txt" && \
	diff "$$tmp/default.txt" "$$tmp/v3.txt" && \
	echo "quick-kernels: purego and GOAMD64=v3 builds identical to the default on $$(wc -l < "$$tmp/default.txt") lines"

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

# Host-speed microbenchmarks of the distance kernels and the zero-alloc
# search layer: regenerates the committed BENCH_host.json trajectory
# artefact (ROADMAP item 1 plans to retire it for the bench/ ledger).
# HOSTBENCH_FLAGS=-quick runs the kernel section only; CI must not run this
# target (it overwrites the committed baseline bench-diff compares
# against) — bench-diff is the CI smoke.
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
# against a from-scratch reference build, the k-means lane kernel's
# argmin against the scalar first-minimum scan, the batch PQ ADC kernel
# against Distance, bad rows included, and the device's grouped read jobs
# against the one-timer-per-read job they replaced (the seeded corpora
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
	$(FUZZ) -fuzz=FuzzDistanceRows ./internal/index/pq
	$(FUZZ) -fuzz=FuzzReadGroups ./internal/storage/ssd
