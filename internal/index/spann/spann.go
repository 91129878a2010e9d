// Package spann implements a SPANN-style storage-based cluster index (Chen
// et al., NeurIPS 2021), the other disk-resident index family the paper
// discusses (Sec. II-B and ref [30]): centroids stay in memory — navigated
// by a small in-memory HNSW graph — while posting lists (the cluster
// members' full vectors) live contiguously on the SSD.
//
// SPANN's contrast with DiskANN is exactly the paper's storage-layout
// dichotomy:
//
//   - cluster-based postings match the SSD's access granularity: one probe
//     reads a handful of *contiguous* pages instead of DiskANN's dependent
//     chains of 4 KiB random reads, and
//   - boundary vectors are replicated into up to Replicas closest clusters
//     (the closure rule), trading space amplification — up to 8× in the
//     original system — for single-probe recall.
//
// The extD experiment compares the two systems' performance and I/O
// characteristics head-to-head.
package spann

import (
	"fmt"

	"svdbench/internal/index"
	"svdbench/internal/index/hnsw"
	"svdbench/internal/index/kmeans"
	"svdbench/internal/storage/nodecache"
	"svdbench/internal/vec"
)

// Config controls construction.
type Config struct {
	// PostingSize is the target vectors per posting list (default 128).
	PostingSize int
	// Replicas caps how many clusters one vector may join (default 4).
	Replicas int
	// ReplicaEps is the closure slack: a vector joins every cluster whose
	// centroid is within (1+ReplicaEps)× the distance of its nearest
	// centroid (default 0.15).
	ReplicaEps float64
	// Metric is the query distance.
	Metric vec.Metric
	// Seed drives clustering.
	Seed int64
	// PageSize is the storage page size (default 4096).
	PageSize int
}

// Index is a built SPANN-style index.
type Index struct {
	cfg       Config
	data      *vec.Matrix
	ids       []int32
	centroids *vec.Matrix
	navigator *hnsw.Index // in-memory centroid graph
	postings  [][]int32   // rows per posting list
	pages     [][]int64   // storage pages per posting list
	replicas  int64       // total posting entries (≥ n)
	scorer    *index.Scorer

	// caches holds one posting cache per (policy, capacity) requested
	// through search options; a "node" here is one posting list, SPANN's
	// unit of storage access.
	caches *nodecache.Set
}

// Build clusters the data into page-friendly postings with boundary
// replication and an in-memory centroid navigator.
func Build(data *vec.Matrix, ids []int32, cfg Config) (*Index, error) {
	n := data.Len()
	if n == 0 {
		return nil, fmt.Errorf("spann: empty data")
	}
	if cfg.PostingSize <= 0 {
		cfg.PostingSize = 128
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 4
	}
	if cfg.ReplicaEps <= 0 {
		cfg.ReplicaEps = 0.15
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = 4096
	}
	k := (n + cfg.PostingSize - 1) / cfg.PostingSize
	if k < 1 {
		k = 1
	}
	res := kmeans.Run(data, kmeans.Config{K: k, Seed: cfg.Seed, MaxIter: 12})
	ix := &Index{
		cfg:       cfg,
		data:      data,
		ids:       ids,
		centroids: res.Centroids,
		postings:  make([][]int32, res.Centroids.Len()),
		scorer:    index.NewScorer(data, cfg.Metric),
	}
	// Closure assignment with replication: join every centroid within
	// (1+eps) of the nearest, up to Replicas.
	nc := ix.centroids.Len()
	maxProbe := cfg.Replicas
	if maxProbe > nc {
		maxProbe = nc
	}
	cdists, cells := make([]float32, nc), make([]int, nc)
	for row := 0; row < n; row++ {
		v := data.Row(row)
		near := kmeans.NearestN(ix.centroids, v, maxProbe, cdists, cells) // ascending by distance
		d0 := vec.L2Sq(v, ix.centroids.Row(near[0]))
		limit := float32((1 + cfg.ReplicaEps) * (1 + cfg.ReplicaEps) * float64(d0))
		for i, c := range near {
			if i > 0 && vec.L2Sq(v, ix.centroids.Row(c)) > limit {
				break // near is sorted: everything further is outside too
			}
			ix.postings[c] = append(ix.postings[c], int32(row))
			ix.replicas++
		}
	}
	// Navigate centroids with a small memory HNSW (the original uses an
	// SPTAG tree+graph; any memory ANN over centroids serves the role).
	nav, err := hnsw.Build(ix.centroids, nil, hnsw.Config{
		M: 8, EfConstruction: 80, Metric: cfg.Metric, Seed: cfg.Seed + 3,
	})
	if err != nil {
		return nil, fmt.Errorf("spann: centroid navigator: %w", err)
	}
	ix.navigator = nav
	ix.caches = nodecache.NewSet(cfg.PageSize, ix.warmCache)
	return ix, nil
}

// AssignPages lays each posting list out on contiguous storage pages.
func (ix *Index) AssignPages(alloc func(npages int64) int64) {
	entry := int64(ix.data.Dim)*4 + 8 // full vector + id
	ix.pages = make([][]int64, len(ix.postings))
	for c, list := range ix.postings {
		bytes := int64(len(list)) * entry
		npages := (bytes + int64(ix.cfg.PageSize) - 1) / int64(ix.cfg.PageSize)
		if npages == 0 {
			continue
		}
		first := alloc(npages)
		pages := make([]int64, npages)
		for i := range pages {
			pages[i] = first + int64(i)
		}
		ix.pages[c] = pages
	}
}

// Name implements index.Index.
func (ix *Index) Name() string { return "SPANN" }

// Metric implements index.Index.
func (ix *Index) Metric() vec.Metric { return ix.cfg.Metric }

// Len implements index.Index.
func (ix *Index) Len() int { return ix.data.Len() }

// Postings returns the number of posting lists.
func (ix *Index) Postings() int { return len(ix.postings) }

// SpaceAmplification reports total posting entries divided by the vector
// count — SPANN's replication cost (up to 8× in the original paper).
func (ix *Index) SpaceAmplification() float64 {
	return float64(ix.replicas) / float64(ix.data.Len())
}

// MemoryBytes implements index.SizeReporter: centroids plus the navigator.
func (ix *Index) MemoryBytes() int64 {
	cb := int64(ix.centroids.Len()) * int64(ix.centroids.Dim) * 4
	return cb + ix.navigator.MemoryBytes()
}

// StorageBytes implements index.SizeReporter.
func (ix *Index) StorageBytes() int64 {
	var total int64
	for _, pages := range ix.pages {
		total += int64(len(pages)) * int64(ix.cfg.PageSize)
	}
	return total
}

// CacheWarmPostings returns up to n posting ids ordered by centroid
// distance from the navigator's entry point (ties broken by id) — the warm
// set of a static node cache. It is SPANN's analogue of DiskANN's BFS from
// the medoid: every query descends the navigator from the same entry, so
// the postings around it are touched most. Postings with no assigned pages
// are skipped; they would occupy capacity without saving any I/O.
func (ix *Index) CacheWarmPostings(n int) []int32 {
	nc := ix.centroids.Len()
	if n > nc {
		n = nc
	}
	if n <= 0 {
		return nil
	}
	entry := ix.navigator.Entry()
	if entry < 0 {
		return nil
	}
	ev := ix.centroids.Row(int(entry))
	cands := make([]index.Neighbor, 0, nc)
	for c := 0; c < nc; c++ {
		if ix.pages != nil && len(ix.pages[c]) == 0 {
			continue
		}
		cands = append(cands, index.Neighbor{ID: int32(c), Dist: vec.L2Sq(ev, ix.centroids.Row(c))})
	}
	index.SortNeighbors(cands)
	if len(cands) > n {
		cands = cands[:n]
	}
	out := make([]int32, len(cands))
	for i, c := range cands {
		out[i] = c.ID
	}
	return out
}

// warmCache installs the warm posting set of a new static cache (the
// nodecache.Set warm hook; SPANN has one id space, so the space is unused).
func (ix *Index) warmCache(_ string, c *nodecache.Cache) {
	c.Warm(ix.CacheWarmPostings(c.Capacity()))
}

// CacheSnapshot reports the counters of the posting cache the options
// select, or ok=false when no search has instantiated it yet.
func (ix *Index) CacheSnapshot(opts index.SearchOptions) (nodecache.Snapshot, bool) {
	return ix.caches.Snapshot(opts.NodeCachePolicy, opts.NodeCacheNodes, "")
}

// Search implements index.Index: navigate centroids in memory, read the
// NProbe closest posting lists from storage (each one a contiguous
// multi-page request), and scan them with full-precision distances.
func (ix *Index) Search(q []float32, k int, opts index.SearchOptions) index.Result {
	var r index.Result
	ix.SearchInto(q, k, opts, &r)
	return r
}

// SearchInto implements index.SearcherInto: the probe sequence of Search
// writing into a caller-owned Result. The navigator shares the scratch (its
// fields are fully consumed before the posting scan reuses them), posting
// rows are batch-scored, and the dedup/in-flight maps become epoch sets, so
// with a reused scratch and dst the steady-state path (no recorder, no
// posting cache) performs no allocations per query. Results, Stats and the
// recorded execution are byte-identical to the allocating implementation.
//
//annlint:hotpath
func (ix *Index) SearchInto(q []float32, k int, opts index.SearchOptions, dst *index.Result) {
	nprobe := opts.NProbe
	if nprobe <= 0 {
		nprobe = 4
	}
	if nprobe > len(ix.postings) {
		nprobe = len(ix.postings)
	}
	rec := opts.Recorder
	stats := index.Stats{}
	cache := ix.caches.For(opts.NodeCachePolicy, opts.NodeCacheNodes, "")
	scr := index.ScratchFor(opts)

	// In-memory centroid navigation (its compute is charged through the
	// navigator's own recorder into ours).
	navOpts := index.SearchOptions{EfSearch: nprobe * 2, Recorder: rec, Scratch: scr}
	ix.navigator.SearchInto(q, nprobe, navOpts, &scr.Nav)
	nav := &scr.Nav
	stats.DistComps += nav.Stats.DistComps
	stats.Hops += nav.Stats.Hops

	qs := ix.scorer.Query(q)
	heap := &scr.Bounded
	heap.Reset()
	// Look-ahead: the probe order is fully known after navigation, so the
	// search can issue posting j+1..j+la's contiguous reads alongside probe
	// j's demand read — they complete in the background while probe j's
	// vectors are scanned. nextPF tracks the first posting not yet
	// considered for prefetch; selection only peeks at the cache (Contains)
	// and counts no work, keeping the demand execution byte-identical to
	// LookAhead==0.
	la := opts.LookAhead
	var inFlight *index.EpochSet
	nextPF := 1
	if la > 0 {
		inFlight = &scr.InFlight
		inFlight.Begin(len(ix.postings))
	}
	// Replication surfaces the same row through several postings; score
	// each row once so copies cannot crowd distinct ids out of the top-k.
	// (The navigator is done with scr.Visited; a new epoch repurposes it.)
	scored := &scr.Visited
	scored.Begin(ix.data.Len())
	for j, c := range nav.IDs {
		if la > 0 {
			for ; nextPF < len(nav.IDs) && nextPF <= j+la; nextPF++ {
				pc := nav.IDs[nextPF]
				if ix.pages == nil || len(ix.pages[pc]) == 0 || inFlight.Contains(pc) {
					continue
				}
				if cache != nil && cache.Contains(pc) {
					continue
				}
				inFlight.Add(pc)
				stats.PrefetchPages += len(ix.pages[pc])
				rec.AddPrefetch(index.PrefetchRun{Pages: ix.pages[pc], Contiguous: true})
			}
		}
		list := ix.postings[c]
		if ix.pages != nil && len(ix.pages[c]) > 0 {
			if cache != nil && cache.Touch(c, len(ix.pages[c])) {
				// Cached posting: an in-memory hit instead of the
				// contiguous device read.
				stats.CachePages += len(ix.pages[c])
				rec.AddCacheHit(len(ix.pages[c]))
			} else {
				if la > 0 && inFlight.Contains(c) {
					// A look-ahead already issued this posting's read;
					// the demand joins it at replay. Demand accounting
					// is invariant under look-ahead.
					stats.PrefetchUsed += len(ix.pages[c])
					inFlight.Remove(c)
				}
				// One posting probe = one contiguous multi-page read.
				rec.AddContiguousIO(ix.pages[c])
				stats.PagesRead += len(ix.pages[c])
			}
		}
		// Gather the rows this probe actually scores (unseen and unfiltered),
		// batch-score them, then push in gathered order — the same distances
		// and heap-operation sequence as per-row scoring.
		scr.IDs = scr.IDs[:0]
		for _, row := range list {
			if scored.Contains(row) {
				continue
			}
			scored.Add(row)
			if opts.Filter != nil && !opts.Filter(ix.extID(row)) {
				continue
			}
			scr.IDs = append(scr.IDs, row)
		}
		scr.Dists = index.Grow(scr.Dists, len(scr.IDs))
		dists := scr.Dists
		qs.DistBatch(scr.IDs, dists)
		for i, row := range scr.IDs {
			stats.DistComps++
			heap.PushBounded(index.Neighbor{ID: ix.extID(row), Dist: dists[i]}, k)
		}
		rec.AddWork(index.Work{Dist: int32(len(list)), Heap: int32(len(list)), Dim: uint16(ix.data.Dim)})
	}
	rec.Flush()
	scr.Neighbors = heap.DrainAscending(scr.Neighbors[:0])
	index.ResultInto(scr.Neighbors, k, stats, dst)
}

func (ix *Index) extID(row int32) int32 {
	if ix.ids != nil {
		return ix.ids[row]
	}
	return row
}

var _ index.Index = (*Index)(nil)
var _ index.SizeReporter = (*Index)(nil)
