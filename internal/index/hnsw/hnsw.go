// Package hnsw implements the Hierarchical Navigable Small World graph index
// (Malkov & Yashunin, TPAMI 2020), the memory-based graph index used by
// Milvus, Qdrant, Weaviate and LanceDB in the paper.
//
// The implementation is the complete algorithm: exponentially sampled layer
// levels, greedy descent through upper layers, efConstruction-bounded
// candidate search during insertion, and the distance-based heuristic
// neighbour selection of the original paper (Algorithm 4). An optional
// scalar-quantised variant evaluates distances over int8 codes, matching
// LanceDB's HNSW-SQ configuration (and its accuracy penalty, O-3).
package hnsw

import (
	"fmt"
	"math"
	"math/rand"

	"svdbench/internal/index"
	"svdbench/internal/index/sq"
	"svdbench/internal/vec"
)

// Config controls construction.
type Config struct {
	// M is the maximum out-degree of upper layers; layer 0 allows 2M.
	// The paper fixes M=16 (Sec. III-C).
	M int
	// EfConstruction bounds the candidate list during insertion; the
	// paper fixes 200.
	EfConstruction int
	// Metric is the query distance.
	Metric vec.Metric
	// Seed drives level sampling.
	Seed int64
	// ScalarQuantize stores int8 codes and evaluates distances over them
	// (LanceDB's HNSW-SQ).
	ScalarQuantize bool
}

// Index is a built HNSW graph.
type Index struct {
	cfg      Config
	data     *vec.Matrix
	ids      []int32
	links    [][][]int32 // links[node][level] = neighbour rows
	levels   []int
	entry    int32
	maxLevel int
	mult     float64
	scorer   *index.Scorer

	quantizer *sq.Quantizer
	codes     []byte
}

// Build inserts every row of data into a fresh graph. ids, when non-nil,
// maps rows to external ids.
func Build(data *vec.Matrix, ids []int32, cfg Config) (*Index, error) {
	if data.Len() == 0 {
		return nil, fmt.Errorf("hnsw: empty data")
	}
	if cfg.M <= 0 {
		cfg.M = 16
	}
	if cfg.EfConstruction < cfg.M {
		cfg.EfConstruction = 200
	}
	ix := &Index{
		cfg:      cfg,
		data:     data,
		ids:      ids,
		links:    make([][][]int32, data.Len()),
		levels:   make([]int, data.Len()),
		entry:    -1,
		maxLevel: -1,
		mult:     1 / math.Log(float64(cfg.M)),
		scorer:   index.NewScorer(data, cfg.Metric),
	}
	if cfg.ScalarQuantize {
		q, err := sq.Train(data)
		if err != nil {
			return nil, fmt.Errorf("hnsw: train sq: %w", err)
		}
		ix.quantizer = q
		ix.codes = q.EncodeAll(data)
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	// Pre-sample levels so the batched build stays deterministic.
	lists := 0
	for row := range ix.levels {
		ix.levels[row] = ix.randomLevel(r)
		lists += ix.levels[row] + 1
	}
	// Candidate searches run in parallel against the frozen graph, then every
	// worker links the rows of the batch into the nodes it owns
	// (index.InsertBatched); batches grow from 1. memos[row][level] is what
	// that list's re-prunes remember; it is the build's and dies with it.
	memos, all := make([][]index.PruneMemo, data.Len()), make([]index.PruneMemo, lists)
	for row, level := range ix.levels {
		memos[row], all = all[:level+1:level+1], all[level+1:]
	}
	index.InsertBatched(data.Len(), 1,
		func(i int, scr *index.SearchScratch) [][]int32 { return ix.planInsert(int32(i), scr) },
		func(i int, selected [][]int32, sh index.Shard) { ix.applyInsert(int32(i), selected, sh, memos) })
	return ix, nil
}

// planInsert computes, against the frozen graph, the selected neighbours of
// one row per layer (nil for the very first node). scr is the calling
// worker's scratch.
func (ix *Index) planInsert(row int32, scr *index.SearchScratch) [][]int32 {
	if ix.entry < 0 || ix.entry == row {
		return nil
	}
	level := ix.levels[row]
	q := ix.rowQuery(row)
	top := min(level, ix.maxLevel)
	selected := make([][]int32, top+1)
	eps := []index.Neighbor{ix.descend(q, level, nil, scr)}
	for l := top; l >= 0; l-- {
		found := ix.searchLayer(q, eps, ix.cfg.EfConstruction, l, nil, nil, scr)
		selected[l] = ix.selectNeighbors(found, ix.cfg.M, nil, scr)
		eps = found
	}
	return selected
}

// applyInsert links one planned row into the graph: the shard that owns row
// writes its lists, the owner of each selected neighbour adds and re-prunes
// that neighbour's reverse edge, and the lead shard moves the entry point.
// Every edit touches one node's lists and memos (or, the entry point, none),
// and a new row's neighbours were found in the frozen graph, so they are
// never rows of the same batch.
func (ix *Index) applyInsert(row int32, selected [][]int32, sh index.Shard, memos [][]index.PruneMemo) {
	level := ix.levels[row]
	if sh.Owns(row) {
		ix.links[row] = make([][]int32, level+1)
		copy(ix.links[row], selected)
	}
	for l := len(selected) - 1; l >= 0; l-- {
		for _, nb := range selected[l] {
			if sh.Owns(nb) {
				ix.linkBack(nb, row, l, &memos[nb][l], sh.Scr)
			}
		}
	}
	// maxLevel starts at -1, so the first row becomes the entry.
	if sh.Lead() && level > ix.maxLevel {
		ix.maxLevel = level
		ix.entry = row
	}
}

// distBatch writes the index's working distance from a prepared query to
// each listed row into out: exact through the scorer, or over the SQ codes
// when the SQ variant is enabled.
func (ix *Index) distBatch(q index.QueryScorer, ids []int32, out []float32) {
	if ix.quantizer != nil {
		ix.quantizer.DistanceBatch(q.Vector(), ix.codes, ids, out)
		return
	}
	q.DistBatch(ids, out)
}

// rowQuery prepares stored row i as a query, reusing its cached norm.
func (ix *Index) rowQuery(i int32) index.QueryScorer {
	return ix.scorer.QueryRow(int(i))
}

// randomLevel samples the insertion level with the standard exponential
// distribution.
func (ix *Index) randomLevel(r *rand.Rand) int {
	return int(-math.Log(1-r.Float64()) * ix.mult)
}

// maxDegree is the degree cap of a layer.
func (ix *Index) maxDegree(level int) int {
	if level == 0 {
		return 2 * ix.cfg.M
	}
	return ix.cfg.M
}

// linkBack adds a reverse edge from node to target (index.Relink) and, over
// the layer cap, re-prunes node's list to the cap with its memo. It reads and
// writes only node's list and memo (plus immutable vectors and codes), so
// reverse edges of different nodes can be applied concurrently.
func (ix *Index) linkBack(node, target int32, level int, memo *index.PruneMemo, scr *index.SearchScratch) {
	limit := ix.maxDegree(level)
	ix.links[node][level] = index.Relink(scr, ix.links[node][level], target, limit, limit, memo,
		func(ids []int32, out []float32) { ix.distBatch(ix.rowQuery(node), ids, out) },
		func(cands []index.Neighbor, m int) []int32 { return ix.selectNeighbors(cands, m, memo, scr) })
}

// selectNeighbors is HNSW's Algorithm 4 on index.Prune: keep a candidate c
// only if it is closer to the query than to every already-kept neighbour s,
// d(c, s) < c.Dist, which spreads edges across directions; then back-fill
// with the closest candidates left out, which keeps graphs connected on
// clustered data. c is the scoring side: exact distances through c's
// DistBatch, or for HNSW-SQ c's full vector against the kept codes, each
// decoded into scr.Lanes the first time a candidate is scored against it.
// memo is the re-pruned node's (index.Prune), or nil. It returns a fresh
// slice; scr lends the working buffers.
func (ix *Index) selectNeighbors(cands []index.Neighbor, m int, memo *index.PruneMemo, scr *index.SearchScratch) []int32 {
	dim := ix.data.Dim
	if ix.quantizer != nil {
		scr.Lanes = index.Grow(scr.Lanes, vec.LaneBlockLen(m, dim))
		scr.Decoded = index.Grow(scr.Decoded, m)
		clear(scr.Decoded)
	}
	sel := index.Prune(scr, cands, m, memo,
		func(c int32, lo int, kept []int32, out []float32) {
			if ix.quantizer == nil {
				ix.rowQuery(c).DistBatch(kept, out)
				return
			}
			for i, id := range kept {
				if !scr.Decoded[lo+i] {
					scr.Decoded[lo+i] = true
					ix.quantizer.DecodeLane(scr.Lanes, lo+i, ix.codes, int(id))
				}
			}
			vec.L2SqLanes(ix.data.Row(int(c)), scr.Lanes[lo*dim:vec.LaneBlockLen(lo+len(out), dim)], out)
		},
		func(d float32, c index.Neighbor) bool { return d < c.Dist })
	// Back-fill: merge the first m-len(sel) left-out candidates into the
	// kept ones by position, which keeps the list ascending by (Dist, ID).
	if extra := m - len(sel); extra > 0 {
		sel = sel[:0]
		for i, c := range cands {
			if !scr.Kept[i] {
				if extra == 0 {
					continue
				}
				extra--
			}
			sel = append(sel, c.ID)
		}
	}
	return sel
}

// descend walks the layers above level greedily, each to its locally
// closest node, from the entry point down, and returns where it stopped: the
// entry point of the layer search at level. Each node's neighbours are scored
// in one batch, then scanned in list order. stats, when non-nil, receives the
// distance computations and hops of the walk. scr lends the gather buffers.
func (ix *Index) descend(q index.QueryScorer, level int, stats *index.Stats, scr *index.SearchScratch) index.Neighbor {
	scr.IDs = append(scr.IDs[:0], ix.entry)
	scr.Dists = index.Grow(scr.Dists, 1)
	ix.distBatch(q, scr.IDs, scr.Dists)
	cur := index.Neighbor{ID: ix.entry, Dist: scr.Dists[0]}
	comps, hops := 1, 0
	for l := ix.maxLevel; l > level; l-- {
		for improved := true; improved; hops++ {
			improved = false
			nbs := ix.neighbors(cur.ID, l)
			scr.Dists = index.Grow(scr.Dists, len(nbs))
			ix.distBatch(q, nbs, scr.Dists)
			comps += len(nbs)
			for i, nb := range nbs {
				if d := scr.Dists[i]; d < cur.Dist {
					cur = index.Neighbor{ID: nb, Dist: d}
					improved = true
				}
			}
		}
	}
	if stats != nil {
		stats.DistComps += comps
		stats.Hops += hops
	}
	return cur
}

func (ix *Index) neighbors(node int32, level int) []int32 {
	if level >= len(ix.links[node]) {
		return nil
	}
	return ix.links[node][level]
}

// searchLayer is HNSW's Algorithm 2 on one layer: index.BestFirst over the
// layer's links, scored exactly or over the SQ codes. stats and rec may be nil
// during construction. It returns the ef closest nodes, ascending by distance.
func (ix *Index) searchLayer(q index.QueryScorer, eps []index.Neighbor, ef, level int, stats *index.Stats, rec *index.Profile, scr *index.SearchScratch) []index.Neighbor {
	index.BestFirst(scr, ix.data.Len(), eps, ef,
		func(id int32) []int32 { return ix.neighbors(id, level) },
		func(ids []int32, out []float32) { ix.distBatch(q, ids, out) },
		func(ids []int32, _ []float32) {
			comps := len(ids)
			if stats != nil {
				stats.Hops++
				if ix.quantizer != nil {
					stats.PQComps += comps
				} else {
					stats.DistComps += comps
				}
			}
			rec.AddWork(index.Work{Dist: int32(comps), Heap: int32(comps + 2), Dim: uint16(ix.data.Dim)})
		})
	// The returned slice is scr.Neighbors itself: valid only until the next
	// operation touching scr, and every caller drains or copies it before
	// that. Documented contract, not a leak.
	return scr.Neighbors
}

// Search implements index.Index: greedy descent through upper layers, then
// an efSearch-bounded layer-0 expansion.
func (ix *Index) Search(q []float32, k int, opts index.SearchOptions) index.Result {
	var r index.Result
	ix.SearchInto(q, k, opts, &r)
	return r
}

// SearchInto implements index.SearcherInto: Search writing into a
// caller-owned Result. With a reused scratch and dst the steady-state path
// performs no allocations.
//
//annlint:hotpath
func (ix *Index) SearchInto(q []float32, k int, opts index.SearchOptions, dst *index.Result) {
	scr := index.ScratchFor(opts)
	ef := opts.EfSearch
	if ef < k {
		ef = k
	}
	stats := index.Stats{}
	rec := opts.Recorder
	qs := ix.scorer.Query(q)
	eps := [1]index.Neighbor{ix.descend(qs, 0, &stats, scr)}
	rec.AddWork(index.Work{Dist: int32(stats.DistComps), Dim: uint16(ix.data.Dim)})
	found := ix.searchLayer(qs, eps[:], ef, 0, &stats, rec, scr)
	rec.Flush()
	// Apply filter and map to external ids, compacting in place (found
	// aliases scr.Neighbors; the write index never passes the read index).
	w := 0
	for _, n := range found {
		id := ix.extID(n.ID)
		if opts.Filter != nil && !opts.Filter(id) {
			continue
		}
		found[w] = index.Neighbor{ID: id, Dist: n.Dist}
		w++
		if w == k {
			break
		}
	}
	if ix.quantizer != nil {
		stats.PQComps += stats.DistComps
		stats.DistComps = 0
	}
	index.ResultInto(found[:w], k, stats, dst)
}

func (ix *Index) extID(row int32) int32 {
	if ix.ids != nil {
		return ix.ids[row]
	}
	return row
}

// Name implements index.Index.
func (ix *Index) Name() string {
	if ix.cfg.ScalarQuantize {
		return "HNSW_SQ"
	}
	return "HNSW"
}

// Metric implements index.Index.
func (ix *Index) Metric() vec.Metric { return ix.cfg.Metric }

// Len implements index.Index.
func (ix *Index) Len() int { return ix.data.Len() }

// Entry returns the row every search descends from (the top-layer entry
// point), or -1 for an empty graph. SPANN uses it to warm its static node
// cache with the postings nearest the navigator's entry.
func (ix *Index) Entry() int32 { return ix.entry }

// MemoryBytes implements index.SizeReporter.
func (ix *Index) MemoryBytes() int64 {
	var linkBytes int64
	for _, perLevel := range ix.links {
		for _, l := range perLevel {
			linkBytes += int64(len(l)) * 4
		}
	}
	vecBytes := int64(ix.data.Len()) * int64(ix.data.Dim) * 4
	if ix.quantizer != nil {
		vecBytes = int64(len(ix.codes)) + ix.quantizer.MemoryBytes()
	}
	return linkBytes + vecBytes
}

// StorageBytes implements index.SizeReporter.
func (ix *Index) StorageBytes() int64 { return 0 }

// Degree returns the out-degree of a node at a level (for tests).
func (ix *Index) Degree(row int32, level int) int { return len(ix.neighbors(row, level)) }

var _ index.Index = (*Index)(nil)
var _ index.SizeReporter = (*Index)(nil)
