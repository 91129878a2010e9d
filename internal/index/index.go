// Package index defines the machinery shared by every vector index in the
// benchmark: the Index interface, search options, result types, the CPU cost
// model that converts counted work into virtual time, and the execution
// profile recorder used by the record-then-replay harness.
//
// Indexes run their real algorithms on real data (so recall numbers are
// genuine) while recording, per query, the alternating compute/I/O steps
// that the discrete-event simulation later replays under load.
package index

import (
	"errors"
	"time"

	"svdbench/internal/vec"
)

// ErrNotSupported is returned when an index cannot satisfy a request (for
// example deletion on an immutable index).
var ErrNotSupported = errors.New("index: operation not supported")

// SearchOptions carries the search-time parameters of all index families;
// each index reads the fields it understands (the paper's Table II maps the
// fields to indexes: NProbe for IVF, EfSearch for HNSW, SearchList and
// BeamWidth for DiskANN).
type SearchOptions struct {
	// NProbe is the number of candidate clusters an IVF search scans.
	NProbe int
	// EfSearch is HNSW's dynamic candidate list size.
	EfSearch int
	// SearchList is DiskANN's candidate list size (L).
	SearchList int
	// BeamWidth is DiskANN's beam width (W): frontier nodes fetched from
	// storage per search iteration.
	BeamWidth int
	// Filter restricts results to ids for which it returns true (nil
	// means no filtering). Implements the filtered-search extension. It
	// may be called from several goroutines at once: a batch runs its
	// queries on several workers, and a collection's single query
	// searches its segments on several.
	Filter func(id int32) bool
	// NodeCacheNodes is the capacity, in nodes, of the index-aware node
	// cache storage-based indexes (DiskANN, SPANN) consult before issuing
	// beam or posting reads. Zero disables the cache entirely, leaving
	// the recorded execution byte-identical to the uncached one.
	NodeCacheNodes int
	// NodeCachePolicy selects the node-cache replacement policy:
	// NodeCacheStatic (a BFS-warmed fixed set, DiskANN's
	// num_nodes_to_cache) or NodeCacheLRU (dynamic, the default when
	// empty). Ignored while NodeCacheNodes is zero.
	NodeCachePolicy string
	// LookAhead is the pipeline depth of the storage-based searches: the
	// number of top unexpanded candidates whose pages are speculatively
	// prefetched while the current hop's distances are scored (LAANN-style
	// look-ahead). Zero disables prefetching. Look-ahead changes *when*
	// pages are read, never *what* the candidate list contains: results and
	// demand I/O stay byte-identical to the synchronous search at any depth,
	// with speculative reads recorded separately (Step.Prefetch) and
	// accounted in Stats.PrefetchPages/PrefetchUsed.
	LookAhead int
	// Layout selects the on-disk layout a storage-based index searches:
	// LayoutID (the default when empty) keeps one node per page slot, the
	// layout the paper measures; LayoutPage groups a node with its nearest
	// graph neighbours into 4 KiB page-nodes and beam-searches over those
	// (the PageANN-style page-as-graph-unit co-design). Indexes without a
	// second layout ignore the field. An explicit option overrides the
	// layout the index was built with.
	Layout string
	// QueryConcurrency bounds how many queries of one batch (BatchRun) run
	// concurrently on host goroutines (0 means the default of 8). Batches
	// against a mutable node cache always run sequentially in query order
	// regardless, so recorded executions stay deterministic.
	QueryConcurrency int
	// Scratch, when non-nil, supplies the reusable per-searcher workspace
	// (heaps, visited sets, candidate buffers) of the zero-alloc search hot
	// path. A scratch must be owned by one goroutine at a time; BatchRun
	// threads one per worker. Nil means the search allocates a private
	// scratch — results are identical either way.
	Scratch *SearchScratch
	// Recorder, when non-nil, receives the query's execution profile.
	Recorder *Profile
}

// On-disk layout names understood by the storage-based indexes.
const (
	// LayoutID packs one node per page slot (addresses are derived from the
	// node id): every beam hop fetches a page and scores exactly one node,
	// the layout behind the paper's O-15 finding. The default when empty.
	LayoutID = "id"
	// LayoutPage makes the 4 KiB page the logical graph unit: a page holds
	// a node and its nearest graph neighbours plus an embedded inter-page
	// adjacency list, so one fetch scores every resident node.
	LayoutPage = "page"
)

// Node-cache policy names understood by the storage-based indexes; they
// mirror internal/storage/nodecache's Policy values without importing it.
const (
	// NodeCacheStatic caches a fixed node set warmed by BFS from the
	// traversal entry point.
	NodeCacheStatic = "static"
	// NodeCacheLRU caches nodes least-recently-used, admitting on miss.
	NodeCacheLRU = "lru"
)

// NodeCacheMutable reports whether the options select a node cache whose
// state evolves across queries (every policy except the static set).
// Recording against a mutable cache must be sequential in query order —
// BatchRun runs such a batch on one goroutine — or the recorded executions
// would depend on host goroutine interleaving.
func (o SearchOptions) NodeCacheMutable() bool {
	return o.NodeCacheNodes > 0 && o.NodeCachePolicy != NodeCacheStatic
}

// Result is a completed search: ids ordered closest-first with their
// distances, plus counted work.
type Result struct {
	IDs   []int32
	Dists []float32
	Stats Stats
}

// Stats counts the work one search performed.
type Stats struct {
	// DistComps is the number of full-precision distance computations.
	DistComps int
	// PQComps is the number of compressed (PQ/SQ) distance computations.
	PQComps int
	// Hops is the number of graph expansion iterations (graph indexes).
	Hops int
	// PagesRead is the number of 4 KiB pages fetched from storage.
	PagesRead int
	// CachePages is the number of pages served by the node cache instead
	// of storage; PagesRead+CachePages is invariant under caching.
	CachePages int
	// PrefetchPages counts pages issued speculatively by look-ahead;
	// PrefetchUsed counts the subset a later hop actually demanded.
	// PrefetchPages−PrefetchUsed is the wasted prefetch volume. Both are
	// zero when LookAhead is zero. Demand accounting (PagesRead,
	// CachePages) is unaffected: a prefetched-then-demanded page still
	// counts in PagesRead, it just completes earlier at replay.
	PrefetchPages int
	PrefetchUsed  int
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.DistComps += other.DistComps
	s.PQComps += other.PQComps
	s.Hops += other.Hops
	s.PagesRead += other.PagesRead
	s.CachePages += other.CachePages
	s.PrefetchPages += other.PrefetchPages
	s.PrefetchUsed += other.PrefetchUsed
}

// WastedPrefetchRatio is the fraction of speculatively read pages no hop
// ever demanded (0 when look-ahead was off).
func (s Stats) WastedPrefetchRatio() float64 {
	if s.PrefetchPages == 0 {
		return 0
	}
	return float64(s.PrefetchPages-s.PrefetchUsed) / float64(s.PrefetchPages)
}

// Index is a built vector index ready to answer k-NN queries.
type Index interface {
	// Name identifies the index family ("IVF_FLAT", "HNSW", "DISKANN", ...).
	Name() string
	// Metric returns the distance metric the index was built with.
	Metric() vec.Metric
	// Len returns the number of indexed vectors.
	Len() int
	// Search returns the approximate k nearest neighbours of q.
	Search(q []float32, k int, opts SearchOptions) Result
	// SearchInto is Search writing into a caller-owned Result.
	SearcherInto
}

// SizeReporter is implemented by indexes that can report their memory and
// storage footprints (for the paper's memory-cost discussion).
type SizeReporter interface {
	// MemoryBytes is the resident main-memory footprint.
	MemoryBytes() int64
	// StorageBytes is the on-SSD footprint (zero for memory-only indexes).
	StorageBytes() int64
}

// CostModel converts a step's counted work into virtual CPU time; Price is
// the only place that happens. Costs are expressed in picoseconds because
// SIMD kernels spend well under a nanosecond per dimension; the defaults
// approximate one core of the paper's Xeon Silver 4416+.
type CostModel struct {
	// DistFixedPs is the fixed overhead of one full-precision distance.
	DistFixedPs int64
	// DistPerDimPs is the per-dimension cost of one full-precision
	// distance.
	DistPerDimPs int64
	// PQFixedPs and PQPerSubPs cost one asymmetric PQ distance with m
	// sub-quantizer table lookups.
	PQFixedPs  int64
	PQPerSubPs int64
	// HeapOpPs is the bookkeeping cost per candidate push/pop.
	HeapOpPs int64
	// CacheHitPs is the in-memory cost of serving one node-cache page (a
	// DRAM copy plus lookup, far below a device read).
	CacheHitPs int64
}

// DefaultCostModel is the calibration used by all experiments.
func DefaultCostModel() CostModel {
	return CostModel{
		DistFixedPs:  40_000,
		DistPerDimPs: 250,
		PQFixedPs:    20_000,
		PQPerSubPs:   900,
		HeapOpPs:     25_000,
		CacheHitPs:   120_000,
	}
}

// Price returns the virtual CPU time of one step: its counted work and its
// node-cache hits, each kind truncated to whole nanoseconds on its own. It
// takes pointers because the engine prices every replayed step: copying the
// step and the model costs more than the arithmetic.
//
//annlint:hotpath
func (c *CostModel) Price(s *Step) time.Duration {
	w := &s.Work
	dist := (c.DistFixedPs + int64(w.Dim)*c.DistPerDimPs) * int64(w.Dist) / 1000
	adc := (c.PQFixedPs + int64(w.M)*c.PQPerSubPs) * int64(w.ADC) / 1000
	return time.Duration(dist + adc + c.HeapOpPs*int64(w.Heap)/1000 + c.CacheHitPs*int64(s.CachePages)/1000)
}

// Work counts the compute of one step, priced only at replay by
// CostModel.Price.
type Work struct {
	// Dist counts full-precision distances, each over Dim dimensions.
	Dist int32
	// ADC counts asymmetric PQ distances, each M table lookups.
	ADC int32
	// Heap counts candidate heap operations.
	Heap int32
	Dim  uint16
	M    uint16
}

// Step is one stage of a query's execution: a CPU burst followed by a batch
// of page reads (the batch is empty for pure-compute steps). Graph
// traversals produce one step per hop with the beam's pages issued in
// parallel; cluster scans produce one step per probed cluster with the
// posting's pages read as a single contiguous request.
type Step struct {
	// Work is the burst's counted compute; the replay engine prices it,
	// with CachePages, when the burst starts.
	Work  Work
	Pages []int64
	// Contiguous marks the page batch as one sequential multi-page read
	// (a posting list) rather than parallel random reads (a beam).
	Contiguous bool
	// CachePages counts pages the node cache absorbed in this step: reads
	// the search would have issued to the device but served from memory,
	// priced per page into the burst. The replay engine reports them to
	// the tracer so hit rates appear in run metrics without any device
	// traffic.
	CachePages int32
	// Prefetch lists the speculative reads look-ahead issued alongside
	// this step's demand I/O. The replay engine launches them
	// asynchronously — they complete in the background while later steps
	// burn CPU — and later demand pages matching an in-flight prefetch
	// join its completion instead of issuing a duplicate read. A step's
	// demand Pages always lists everything the search needed (prefetched
	// or not), so replaying with Prefetch stripped yields exactly the
	// synchronous execution.
	Prefetch []PrefetchRun
}

// PrefetchRun is one speculative read batch: the pages of one look-ahead
// candidate (a graph node's pages, issued as parallel 4 KiB reads) or one
// posting list (a single contiguous multi-page read).
type PrefetchRun struct {
	Pages      []int64
	Contiguous bool
}

// Profile is the recorded execution of one query against one index: the
// replay harness walks the steps in order, charging CPU and issuing I/O
// inside the simulation.
type Profile struct {
	Steps []Step
	// pending accumulates the work, node-cache hits and prefetches not yet
	// flushed into a step.
	pending Step
}

// AddWork accumulates counted compute into the current (unflushed) step; a
// non-zero Dim or M replaces the step's.
func (p *Profile) AddWork(w Work) {
	if p == nil {
		return
	}
	pw := &p.pending.Work
	pw.Dist += w.Dist
	pw.ADC += w.ADC
	pw.Heap += w.Heap
	if w.Dim != 0 {
		pw.Dim = w.Dim
	}
	if w.M != 0 {
		pw.M = w.M
	}
}

// AddCacheHit accumulates node-cache page hits into the current (unflushed)
// step; they are priced with its work.
func (p *Profile) AddCacheHit(pages int) {
	if p == nil {
		return
	}
	p.pending.CachePages += int32(pages)
}

// AddPrefetch accumulates one speculative read batch into the current
// (unflushed) step; the pages are copied. Look-ahead counts no extra work —
// selecting prefetch targets rides on work the search already does — which
// keeps CPU bursts byte-identical to the synchronous profile.
func (p *Profile) AddPrefetch(run PrefetchRun) {
	if p == nil || len(run.Pages) == 0 {
		return
	}
	cp := make([]int64, len(run.Pages)) //annlint:allow hotalloc -- profiling copy, taken only when a recorder is attached; measurement runs accept it
	copy(cp, run.Pages)
	p.pending.Prefetch = append(p.pending.Prefetch, PrefetchRun{Pages: cp, Contiguous: run.Contiguous})
}

// flushStep appends one step carrying everything pending plus the given
// page batch.
func (p *Profile) flushStep(pages []int64, contiguous bool) {
	s := p.pending
	s.Pages, s.Contiguous = pages, contiguous
	p.Steps = append(p.Steps, s)
	p.pending = Step{}
}

// AddIO flushes the pending compute plus the given parallel page batch as
// one step.
func (p *Profile) AddIO(pages []int64) {
	if p == nil {
		return
	}
	cp := make([]int64, len(pages)) //annlint:allow hotalloc -- profiling copy, taken only when a recorder is attached; measurement runs accept it
	copy(cp, pages)
	p.flushStep(cp, false)
}

// AddContiguousIO flushes the pending compute plus one sequential
// multi-page read as one step.
func (p *Profile) AddContiguousIO(pages []int64) {
	if p == nil {
		return
	}
	cp := make([]int64, len(pages)) //annlint:allow hotalloc -- profiling copy, taken only when a recorder is attached; measurement runs accept it
	copy(cp, pages)
	p.flushStep(cp, true)
}

// Flush closes the profile, emitting any pending compute, cache hits or
// prefetches as a final step.
func (p *Profile) Flush() {
	if p == nil {
		return
	}
	w := p.pending.Work
	if w.Dist > 0 || w.ADC > 0 || w.Heap > 0 || p.pending.CachePages > 0 || len(p.pending.Prefetch) > 0 {
		p.flushStep(nil, false)
	}
}
