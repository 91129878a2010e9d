// Package diskann implements the DiskANN storage-based graph index
// (Subramanya et al., NeurIPS 2019) as deployed in Milvus: a Vamana
// proximity graph whose nodes — full-precision vector plus adjacency list —
// live in fixed-size storage pages, with product-quantised vectors kept in
// memory to steer the traversal.
//
// Search uses beam search (Sec. II-B of the paper): each iteration takes the
// W closest unvisited candidates from the L-bounded candidate list
// (search_list), fetches their pages from the device in parallel, scores
// their neighbours with in-memory PQ distances, and re-ranks fetched nodes
// with exact distances computed from the fetched full-precision vectors.
// Every fetch is ceil(nodeBytes/4096) separate 4 KiB page requests, which is
// why the paper observes >99.99 % 4 KiB I/O (O-15): 768-d nodes fit one
// page, 1536-d nodes span two.
package diskann

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"svdbench/internal/index"
	"svdbench/internal/index/pq"
	"svdbench/internal/storage/nodecache"
	"svdbench/internal/vec"
)

// Config controls construction.
type Config struct {
	// R is the maximum graph degree (Vamana's R, default 48).
	R int
	// LBuild is the construction candidate list size (default 100).
	LBuild int
	// Alpha is the RobustPrune distance slack of the second pass
	// (default 1.2; the first pass always uses 1.0).
	Alpha float64
	// Metric is the query distance.
	Metric vec.Metric
	// Seed drives insertion order and PQ training.
	Seed int64
	// PQM is the number of in-memory PQ sub-quantizers (default dim/8).
	PQM int
	// PageSize is the storage page size (default 4096).
	PageSize int
}

// Index is a built DiskANN index.
type Index struct {
	cfg    Config
	data   *vec.Matrix
	ids    []int32
	graph  [][]int32
	medoid int32
	scorer *index.Scorer

	quantizer *pq.Quantizer
	codes     []byte

	// The two storage regions AssignPages reserves and the two layouts that
	// address them. nodeLay is the id layout, held as the capacity-1 page
	// layout (row i alone in unit i, adjacency = the Vamana graph, entry =
	// the medoid) so one beam kernel walks both. The page region is reserved
	// unconditionally, so pageLay, packed on the first page-layout search,
	// has addresses whenever that search comes.
	basePage      int64
	pagesPerNode  int
	nodeLay       *pageLayout
	pageBase      int64
	pagesPerGroup int
	pageMu        sync.Mutex
	pageLay       *pageLayout

	// caches holds one node cache per (policy, capacity, layout) requested
	// through search options; the layout is the key space, since node rows
	// and page groups must never share a cache.
	caches *nodecache.Set
}

// Build constructs the Vamana graph with the standard two passes and trains
// the in-memory PQ codes. ids, when non-nil, maps rows to external ids.
func Build(data *vec.Matrix, ids []int32, cfg Config) (*Index, error) {
	n := data.Len()
	if n == 0 {
		return nil, fmt.Errorf("diskann: empty data")
	}
	if cfg.R <= 0 {
		cfg.R = 48
	}
	if cfg.LBuild <= 0 {
		cfg.LBuild = 100
	}
	if cfg.Alpha <= 1 {
		cfg.Alpha = 1.2
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = 4096
	}
	if cfg.PQM <= 0 {
		cfg.PQM = pq.DefaultM(data.Dim)
	}
	for data.Dim%cfg.PQM != 0 {
		cfg.PQM--
	}
	ix := &Index{
		cfg:    cfg,
		data:   data,
		ids:    ids,
		graph:  make([][]int32, n),
		scorer: index.NewScorer(data, cfg.Metric),
	}

	q, err := pq.Train(data, cfg.PQM, cfg.Seed+7)
	if err != nil {
		return nil, fmt.Errorf("diskann: train pq: %w", err)
	}
	ix.quantizer = q
	ix.codes = q.EncodeAll(data)

	ix.medoid = ix.computeMedoid()
	r := rand.New(rand.NewSource(cfg.Seed))
	// The standard DiskANN build: incremental insertion over a random
	// permutation with alpha 1.0, then a refinement pass over the complete
	// graph with the configured alpha, then a final prune of any node left
	// in the degree-overflow band. The incremental pass maintains global
	// connectivity by construction: every node links onto the search path
	// from the medoid, and reverse edges are patched in immediately.
	// Within a pass, nodes are processed in deterministic batches
	// (index.InsertBatched). During the incremental pass batch sizes grow
	// from 1 so the early graph — where every insertion changes everything —
	// is built like the sequential algorithm.
	order := r.Perm(n)
	ix.buildPass(order, 1.0, 1)
	ix.buildPass(order, cfg.Alpha, index.MaxInsertBatch)
	scr := index.NewSearchScratch()
	prune := ix.robustPrune(cfg.Alpha, scr)
	for node, nl := range ix.graph {
		if len(nl) > cfg.R {
			ix.graph[node] = index.Reprune(scr, nl, cfg.R, nil, ix.scorer.QueryRow(node).DistBatch, prune)
		}
	}
	ix.bind()
	return ix, nil
}

// bind derives, once the graph is final (built or loaded), what every search
// reads: the unit footprints, the id layout and the node-cache registry. The
// id layout's member table is the identity — 28 B per node — and its
// adjacency aliases the graph rather than copying it.
func (ix *Index) bind() {
	n, dim := ix.data.Len(), ix.data.Dim
	ix.pagesPerNode = (dim*4 + 4 + ix.cfg.R*4 + ix.cfg.PageSize - 1) / ix.cfg.PageSize
	ix.pagesPerGroup = pagesPerGroupFor(dim, ix.cfg.PageSize)
	rows := make([]int32, n)
	members := make([][]int32, n)
	for i := range rows {
		rows[i] = int32(i)
		members[i] = rows[i : i+1 : i+1]
	}
	ix.nodeLay = &pageLayout{members: members, adj: ix.graph, entry: ix.medoid}
	ix.caches = nodecache.NewSet(ix.cfg.PageSize, ix.warmCache)
}

// buildPass runs one Vamana pass over the given node order: search and prune
// against the frozen graph in parallel, then apply the batch's edits on every
// worker, each worker the edits of the nodes it owns — a node's new list, or a
// reverse edge into it (with its overflow prune), which read and write only
// that node's list.
func (ix *Index) buildPass(order []int, alpha float64, batch int) {
	index.InsertBatched(len(order), batch,
		func(i int, scr *index.SearchScratch) []int32 {
			p := int32(order[i])
			ix.greedySearchBuild(ix.scorer.QueryRow(int(p)), ix.cfg.LBuild, p, scr)
			return ix.robustPrune(alpha, scr)(scr.Scored, ix.cfg.R)
		},
		func(i int, pruned []int32, sh index.Shard) {
			p := int32(order[i])
			if sh.Owns(p) {
				ix.graph[p] = pruned
			}
			for _, nb := range pruned {
				if sh.Owns(nb) {
					ix.addEdge(nb, p, alpha, sh.Scr)
				}
			}
		})
}

// computeMedoid returns the row closest to the dataset mean.
func (ix *Index) computeMedoid() int32 {
	mean := make([]float32, ix.data.Dim)
	n := ix.data.Len()
	for i := 0; i < n; i++ {
		vec.Add(mean, ix.data.Row(i))
	}
	vec.Scale(mean, 1/float32(n))
	best, bestD := int32(0), float32(math.Inf(1))
	for i := 0; i < n; i++ {
		if d := vec.L2Sq(mean, ix.data.Row(i)); d < bestD {
			best, bestD = int32(i), d
		}
	}
	return best
}

// addEdge inserts an edge from→to (index.Relink). To keep construction
// tractable the degree is allowed to overflow to 2R before a robust prune
// compacts it back to R (the batched reverse-edge pruning used by production
// Vamana builds); a final prune pass at the end of Build enforces the bound
// everywhere. It passes no index.PruneMemo, which needs one left out per prune.
func (ix *Index) addEdge(from, to int32, alpha float64, scr *index.SearchScratch) {
	ix.graph[from] = index.Relink(scr, ix.graph[from], to, 2*ix.cfg.R, ix.cfg.R, nil,
		ix.scorer.QueryRow(int(from)).DistBatch, ix.robustPrune(alpha, scr))
}

// greedySearchBuild is the construction-time full-precision greedy search:
// index.BestFirst over the graph from the medoid, remembering every node it
// scores. It leaves that visited set as neighbours of q (excluding skip),
// ascending by (Dist, ID), in scr.Scored.
func (ix *Index) greedySearchBuild(q index.QueryScorer, L int, skip int32, scr *index.SearchScratch) {
	d := q.Dist(int(ix.medoid))
	scored := scr.Scored[:0]
	if ix.medoid != skip {
		scored = append(scored, index.Neighbor{ID: ix.medoid, Dist: d})
	}
	index.BestFirst(scr, len(ix.graph), []index.Neighbor{{ID: ix.medoid, Dist: d}}, L,
		func(id int32) []int32 { return ix.graph[id] },
		q.DistBatch,
		func(ids []int32, dists []float32) {
			for i, id := range ids {
				if id != skip {
					scored = append(scored, index.Neighbor{ID: id, Dist: dists[i]})
				}
			}
		})
	index.SortNeighbors(scored)
	scr.Scored = scored
}

// maxOcclusion caps the candidate list RobustPrune scans, like DiskANN's
// occlude-list limit: pruning quality saturates well below it while cost is
// quadratic in the list length.
const maxOcclusion = 256

// occlusionAlpha converts the configured alpha to the working distance
// domain: L2 and cosine working distances are squared Euclidean (cosine
// distance on normalised vectors is L2²/2), so the RobustPrune condition
// alpha·d(s,c) ≤ d(p,c) on true distances becomes alpha²·d²(s,c) ≤ d²(p,c).
func (ix *Index) occlusionAlpha(alpha float64) float64 {
	if ix.cfg.Metric == vec.IP {
		return alpha
	}
	return alpha * alpha
}

// robustPrune returns Vamana's RobustPrune at alpha in the shape
// index.Relink takes: index.Prune over a node p's candidates (ascending by
// (Dist, ID), never p itself) cut to maxOcclusion, dropping c once a kept s
// has alpha·d(s, c) ≤ d(p, c). A NaN distance never occludes. Each candidate
// scores the kept set through its own DistBatch, bit-identical to d(s, c) by
// the metrics' symmetry and Scorer's contract. scr lends the working buffers
// (cands may be its Scored list; the search or re-score that filled it is
// over).
func (ix *Index) robustPrune(alpha float64, scr *index.SearchScratch) func(cands []index.Neighbor, m int) []int32 {
	alpha = ix.occlusionAlpha(alpha)
	return func(cands []index.Neighbor, m int) []int32 {
		if len(cands) > maxOcclusion {
			cands = cands[:maxOcclusion]
		}
		return index.Prune(scr, cands, m, nil,
			func(c int32, _ int, kept []int32, out []float32) { ix.scorer.QueryRow(int(c)).DistBatch(kept, out) },
			func(d float32, c index.Neighbor) bool { return alpha*float64(d) <= float64(c.Dist) })
	}
}

// AssignPages lays the graph out on storage: node i occupies pagesPerNode
// consecutive pages starting at base+i·pagesPerNode. A second region is
// always reserved for the page-node layout (group g occupies pagesPerGroup
// consecutive pages from pageBase; group count never exceeds the node
// count), so a page layout packed after this call still has addresses.
func (ix *Index) AssignPages(alloc func(npages int64) int64) {
	ix.basePage = alloc(int64(ix.data.Len()) * int64(ix.pagesPerNode))
	ix.pageBase = alloc(int64(ix.data.Len()) * int64(ix.pagesPerGroup))
}

// PagesPerGroup reports the footprint of one page-node group in pages (1
// whenever a member fits the page budget at all).
func (ix *Index) PagesPerGroup() int { return ix.pagesPerGroup }

// PageCapacity reports how many member nodes one page group holds (5 at
// 768-d, 2 at 1536-d with the default 4 KiB pages).
func (ix *Index) PageCapacity() int { return pageCapacity(ix.data.Dim, ix.cfg.PageSize) }

// PageGroups reports the number of page groups of the page-node layout,
// materialising it on first use.
func (ix *Index) PageGroups() int { return ix.pageLayoutFor().pages() }

// layoutFor resolves the effective layout of one search: the option's, or
// index.LayoutID when it is empty.
func (ix *Index) layoutFor(opts index.SearchOptions) string {
	if opts.Layout != "" {
		return opts.Layout
	}
	return index.LayoutID
}

// pageLayoutFor returns the page-node layout, packing it on first use. The
// pack is deterministic (seeded permutation, strict tie-breaks), so a loaded
// index packs the same layout as the index it was saved from.
func (ix *Index) pageLayoutFor() *pageLayout {
	ix.pageMu.Lock()
	defer ix.pageMu.Unlock()
	if ix.pageLay == nil {
		ix.pageLay = ix.buildPageLayout()
	}
	return ix.pageLay
}

// Name implements index.Index.
func (ix *Index) Name() string { return "DISKANN" }

// Metric implements index.Index.
func (ix *Index) Metric() vec.Metric { return ix.cfg.Metric }

// Len implements index.Index.
func (ix *Index) Len() int { return ix.data.Len() }

// MemoryBytes implements index.SizeReporter: only PQ codes and codebooks
// stay resident.
func (ix *Index) MemoryBytes() int64 {
	return int64(len(ix.codes)) + ix.quantizer.MemoryBytes()
}

// StorageBytes implements index.SizeReporter.
func (ix *Index) StorageBytes() int64 {
	return int64(ix.data.Len()) * int64(ix.pagesPerNode) * int64(ix.cfg.PageSize)
}

// Degree returns the out-degree of a node (for tests).
func (ix *Index) Degree(row int32) int { return len(ix.graph[row]) }

// CacheWarmNodes returns up to n node rows in breadth-first order from the
// medoid — the warm set of a static node cache, mirroring real DiskANN's
// num_nodes_to_cache: the nodes every beam search crosses first are the
// nodes worth pinning. The order is deterministic (adjacency lists are
// deterministic given the build seed).
func (ix *Index) CacheWarmNodes(n int) []int32 { return ix.nodeLay.warmSet(n) }

// warmCache installs the warm set of a new static cache over one layout's
// units (the nodecache.Set warm hook): the traversal's own units, BFS-walked
// from its entry.
func (ix *Index) warmCache(layout string, c *nodecache.Cache) {
	u := ix.unitsOf(layout)
	c.Warm(u.warmSet(c.Capacity()))
}

// CacheSnapshot reports the counters of the node cache the options select,
// or ok=false when no search has instantiated it yet.
func (ix *Index) CacheSnapshot(opts index.SearchOptions) (nodecache.Snapshot, bool) {
	return ix.caches.Snapshot(opts.NodeCachePolicy, opts.NodeCacheNodes, ix.layoutFor(opts))
}

// Search implements index.Index with DiskANN beam search.
func (ix *Index) Search(q []float32, k int, opts index.SearchOptions) index.Result {
	var r index.Result
	ix.SearchInto(q, k, opts, &r)
	return r
}

// SearchInto implements index.SearcherInto: the beam search over the units
// of the layout the options select, writing into a caller-owned Result. All
// per-query state — candidate list, PQ lookup table, heaps, membership and
// in-flight sets, beam and page buffers — lives in the options' scratch, so
// with a reused scratch and dst the steady-state path (no recorder; a static
// node cache included) performs no allocations per query in either layout.
//
//annlint:hotpath
func (ix *Index) SearchInto(q []float32, k int, opts index.SearchOptions, dst *index.Result) {
	ix.beamSearch(ix.unitsOf(ix.layoutFor(opts)), q, k, opts, dst)
}

func (ix *Index) extID(row int32) int32 {
	if ix.ids != nil {
		return ix.ids[row]
	}
	return row
}

var _ index.Index = (*Index)(nil)
var _ index.SizeReporter = (*Index)(nil)
