package index

// SearchScratch is the reusable per-searcher workspace of the zero-alloc
// search hot path. Every index family's SearchInto draws its heaps, visited
// sets and candidate buffers from here instead of allocating per query, so a
// searcher that reuses one scratch (and one Result) across queries reaches a
// steady state of 0 allocations per query — pinned by AllocsPerRun tests in
// the diskann and spann packages.
//
// A scratch is NOT safe for concurrent use: it is owned by exactly one
// goroutine at a time. BatchRun maintains a free list of one scratch per
// worker and threads them through SearchOptions.Scratch. Determinism is
// unaffected by reuse — scratch contents never influence results, only where
// intermediate state lives — which is why no sync.Pool appears here: a pool
// would add scheduler-dependent reuse patterns for no benefit.
//
// Fields are shared across phases of one search and across index families,
// which is sound because their uses are disjoint in time: for example SPANN
// runs its HNSW navigator (Frontier/Results/Visited/Neighbors) to completion
// before its posting scan touches Visited (dedup), Bounded and Dists.
type SearchScratch struct {
	// Visited marks nodes seen this query: HNSW's visited set, DiskANN's
	// candidate-list membership, SPANN's scored-row dedup.
	Visited EpochSet
	// InFlight marks nodes/postings with a speculative read issued by
	// look-ahead and not yet demanded.
	InFlight EpochSet
	// Frontier is the expansion min-heap of graph searches.
	Frontier MinHeap
	// Results is the ef-bounded working set of HNSW's layer search.
	Results MaxHeap
	// Bounded is the k-bounded result heap of the outer search.
	Bounded MaxHeap
	// Cands is DiskANN's L-bounded candidate list.
	Cands []BeamEntry
	// Beam holds the candidate-list positions fetched this hop.
	Beam []int
	// Pages collects the demand page batch of one hop.
	Pages []int64
	// PF collects one speculative (look-ahead) page run.
	PF []int64
	// Table is DiskANN's per-query PQ lookup table.
	Table []float32
	// Priced marks the DiskANN units this query has PQ-priced, and Prices
	// holds each one's price, so a unit evicted from the candidate list and
	// admitted again is not priced twice.
	Priced EpochSet
	Prices []float32
	// IDs and Dists are paired gather buffers for batch scoring.
	IDs   []int32
	Dists []float32
	// Neighbors receives drained heap contents (ascending order).
	Neighbors []Neighbor
	// Scored is a build-time prune's candidate list: every (id, dist) a
	// Vamana build search scored, or the over-full neighbour list Reprune
	// re-scores.
	Scored []Neighbor
	// Kept is Prune's kept flag per candidate position, Slots the memo slots
	// of its kept ids. Lanes holds, for HNSW-SQ's selection, the kept
	// neighbours decoded into a vec lane block, flagged in Decoded.
	Kept    []bool
	Slots   []int32
	Lanes   []float32
	Decoded []bool
	// Nav holds SPANN's centroid-navigation result between queries.
	Nav Result
	// Cells receives IVF's probe order (closest cell first).
	Cells []int
	// Merged and Units belong to the layer above the indexes: a collection's
	// single-query search writes each unit's result into its own slot of
	// Units (one slot per unit, whichever worker searched it) and merges the
	// slots in unit order into its cross-unit top-k (Merged). Index searches
	// never touch them, so they survive the per-unit SearchInto calls
	// sharing the scratch. Helpers lists, while the units are fanned out,
	// the scratch each worker searches on; it is empty between queries.
	Merged  MaxHeap
	Units   []Result
	Helpers []*SearchScratch
}

// NewSearchScratch returns an empty scratch; buffers grow on first use and
// are retained across queries.
func NewSearchScratch() *SearchScratch { return &SearchScratch{} }

// Grow returns s resliced to length n, allocating a new backing array only
// when s's capacity is short: the one amortised growth path of every scratch
// and caller-owned buffer, so a warmed buffer never allocates again. Contents
// do not survive a reallocation.
func Grow[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n) //annlint:allow hotalloc -- the one cap-guarded growth of reused buffers; steady state reuses their capacity
	}
	return s[:n]
}

// scratchOr returns opts.Scratch, or a fresh scratch when the caller did not
// provide one (the single-shot Search path).
func (o SearchOptions) scratchOr() *SearchScratch {
	if o.Scratch != nil {
		return o.Scratch
	}
	return NewSearchScratch() //annlint:allow hotalloc -- single-shot Search without a caller scratch; batch and steady-state paths always pass a reused scratch
}

// ScratchFor resolves the scratch an index's SearchInto should use. Exposed
// for index implementations in sub-packages.
func ScratchFor(o SearchOptions) *SearchScratch { return o.scratchOr() }

// BeamEntry is one candidate-list slot of a storage-based beam search: a
// node with its steering (PQ) distance and whether its page has been fetched
// and expanded.
type BeamEntry struct {
	ID      int32
	Dist    float32
	Visited bool
}

// EpochSet is a set of small-integer ids with O(1) clear: membership is
// "stamp equals current epoch", so Begin starts a fresh set by bumping the
// epoch instead of zeroing the array — the trick that replaces the per-query
// make([]bool, N) / map[int32]bool of the pre-scratch search loops.
type EpochSet struct {
	stamps []uint32
	epoch  uint32
}

// Begin starts a new (empty) set over ids [0, n). The stamp array grows to n
// on demand and is retained; on epoch wrap-around it is cleared so stale
// stamps from 2^32 queries ago cannot alias.
func (s *EpochSet) Begin(n int) {
	if len(s.stamps) < n {
		s.stamps = make([]uint32, n) //annlint:allow hotalloc -- stamp array grows once to the index size and is retained across queries
	}
	s.epoch++
	if s.epoch == 0 {
		for i := range s.stamps {
			s.stamps[i] = 0
		}
		s.epoch = 1
	}
}

// Contains reports whether id is in the set.
func (s *EpochSet) Contains(id int32) bool { return s.stamps[id] == s.epoch }

// Add inserts id.
func (s *EpochSet) Add(id int32) { s.stamps[id] = s.epoch }

// Remove deletes id. (Stamp 0 is never a live epoch: Begin skips it on
// wrap-around.)
func (s *EpochSet) Remove(id int32) { s.stamps[id] = 0 }

// SearcherInto is the half of Index whose search writes its result into a
// caller-owned Result, reusing dst's buffers: the zero-allocation
// steady-state query path. Search(q, k, opts) is always equivalent to
// SearchInto(q, k, opts, &fresh).
type SearcherInto interface {
	SearchInto(q []float32, k int, opts SearchOptions, dst *Result)
}
