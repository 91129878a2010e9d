// The graph toolkit: the one in-memory best-first traversal, the one
// neighbour-selection rule and reverse-edge step, and the one batched-insert
// driver that HNSW search, HNSW build and Vamana build share (DESIGN.md
// "Graph toolkit").
package index

import (
	"runtime"
	"slices"
	"sync"
)

// BestFirst is the ef-bounded best-first expansion of an in-memory graph over
// ids [0, n): HNSW's Algorithm 2 and Vamana's GreedySearch. From the scored
// entry points eps it pops the closest frontier node until that node is
// farther than the ef-th best result, and leaves the ef closest nodes found,
// ascending by (Dist, ID), in scr.Neighbors (which eps may alias).
//
// Callers differ in three things only: adj is the adjacency of a node, score
// writes the distance of every gathered id into out (one batch per hop), and
// hop, when non-nil, is told each hop's freshly scored ids and distances —
// where HNSW counts stats and records CPU and Vamana remembers its visited
// list. The slices passed to score and hop are scratch, valid for that call.
// All state lives in scr, so a warmed scratch makes the traversal
// allocation-free.
//
//annlint:hotpath
func BestFirst(scr *SearchScratch, n int, eps []Neighbor, ef int,
	adj func(id int32) []int32,
	score func(ids []int32, out []float32),
	hop func(ids []int32, dists []float32)) {
	scr.Visited.Begin(n)
	frontier, results := &scr.Frontier, &scr.Results
	frontier.Reset()
	results.Reset()
	for _, ep := range eps {
		if scr.Visited.Contains(ep.ID) {
			continue
		}
		scr.Visited.Add(ep.ID)
		frontier.Push(ep)
		results.PushBounded(ep, ef)
	}
	for frontier.Len() > 0 {
		cur := frontier.Pop()
		if results.Len() >= ef && cur.Dist > results.Peek().Dist {
			break
		}
		// Gather this hop's unvisited neighbours, then score them in one
		// batch. Marking order, distance values and the push sequence are
		// those of a per-neighbour loop.
		scr.IDs = scr.IDs[:0]
		for _, nb := range adj(cur.ID) {
			if scr.Visited.Contains(nb) {
				continue
			}
			scr.Visited.Add(nb)
			scr.IDs = append(scr.IDs, nb)
		}
		scr.Dists = Grow(scr.Dists, len(scr.IDs))
		dists := scr.Dists
		score(scr.IDs, dists)
		for i, nb := range scr.IDs {
			if d := dists[i]; results.Len() < ef || d < results.Peek().Dist {
				frontier.Push(Neighbor{ID: nb, Dist: d})
				results.PushBounded(Neighbor{ID: nb, Dist: d}, ef)
			}
		}
		if hop != nil {
			hop(scr.IDs, dists)
		}
	}
	scr.Neighbors = results.DrainAscending(scr.Neighbors[:0])
}

// selBatch is how many kept neighbours Prune scores a candidate against per
// call: one 4-row group, or one 4-lane SQ group. Most rejections come from
// the first few kept neighbours, so larger batches cost more wasted
// distances than they save in calls.
const selBatch = 4

// Prune is the occlusion rule both graph builders select neighbours with:
// HNSW's Algorithm 4 and Vamana's RobustPrune. It walks cands — ascending by
// (Dist, ID), distinct ids — closest-first and keeps a candidate c unless an
// already-kept one occludes it, until m are kept. score(c, lo, kept, out)
// writes d(c, kept[i]) into out[i], where kept are the kept ids from
// position lo on, selBatch per call; c is dropped after the first batch in
// which occludes(d, c) holds for some d.
//
// Prune marks the kept positions of cands in scr.Kept and returns the kept
// ids, closest first, in a fresh slice of capacity m. scr.Dists is its
// distance buffer.
func Prune(scr *SearchScratch, cands []Neighbor, m int,
	score func(c int32, lo int, kept []int32, out []float32),
	occludes func(d float32, c Neighbor) bool) []int32 {
	kept := make([]int32, 0, m)
	scr.Kept = Grow(scr.Kept, len(cands))
	clear(scr.Kept)
	scr.Dists = Grow(scr.Dists, selBatch)
next:
	for i, c := range cands {
		if len(kept) == m {
			break
		}
		for lo := 0; lo < len(kept); lo += selBatch {
			ds := scr.Dists[:min(selBatch, len(kept)-lo)]
			score(c.ID, lo, kept[lo:lo+len(ds)], ds)
			for _, d := range ds {
				if occludes(d, c) {
					continue next
				}
			}
		}
		scr.Kept[i] = true
		kept = append(kept, c.ID)
	}
	return kept
}

// Relink adds target to a node's neighbour list, the reverse of an edge a
// new node links: the apply step of both graph builders. A list that
// already holds target is returned unchanged; otherwise target is appended,
// and once the list is longer than over it is re-scored and re-pruned to m
// (Reprune).
func Relink(scr *SearchScratch, list []int32, target int32, over, m int,
	rescore func(ids []int32, out []float32),
	prune func(cands []Neighbor, m int) []int32) []int32 {
	if slices.Contains(list, target) {
		return list
	}
	list = append(list, target)
	if len(list) <= over {
		return list
	}
	return Reprune(scr, list, m, rescore, prune)
}

// Reprune re-scores a node's neighbour list from the node in one batch
// (rescore writes the distance of every listed id into out), sorts it into
// scr.Scored by (Dist, ID) and returns prune's selection of at most m of it.
func Reprune(scr *SearchScratch, list []int32, m int,
	rescore func(ids []int32, out []float32),
	prune func(cands []Neighbor, m int) []int32) []int32 {
	scr.Dists = Grow(scr.Dists, len(list))
	rescore(list, scr.Dists)
	scr.Scored = scr.Scored[:0]
	for i, id := range list {
		scr.Scored = append(scr.Scored, Neighbor{ID: id, Dist: scr.Dists[i]})
	}
	SortNeighbors(scr.Scored)
	return prune(scr.Scored, m)
}

// MaxInsertBatch caps the batches of InsertBatched.
const MaxInsertBatch = 64

// Shard is one apply worker of an InsertBatched batch: the nodes it owns —
// every node is owned by exactly one shard — and that worker's scratch.
type Shard struct {
	Scr  *SearchScratch
	w, n int
}

// Owns reports whether this shard applies the edits to node's adjacency.
func (s Shard) Owns(node int32) bool { return int(node)%s.n == s.w }

// Lead reports whether this is the one shard that also applies the edits
// keyed by no node (HNSW's entry point), which therefore run in item order.
func (s Shard) Lead() bool { return s.w == 0 }

// InsertBatched is the batched construction scheme of the graph builders
// (ParlayANN's): items 0..n-1 are taken in batches of batch, doubling up to
// MaxInsertBatch (a builder whose early graph changes with every insertion
// starts at 1 and is built like the sequential algorithm there). Within a
// batch every item's plan — the expensive search and prune — runs in parallel
// and may only read the graph. Then every worker calls apply for every item
// of the batch, in item order, as its Shard, and apply performs only the
// edits whose node the shard owns: each node's edits run in item order on one
// worker, and an edit reads only its own node's adjacency plus immutable
// vectors, so the graph is the serial one bit for bit at any worker count.
// A worker's scratch lives for the whole call.
func InsertBatched[P any](n, batch int, plan func(i int, scr *SearchScratch) P, apply func(i int, p P, sh Shard)) {
	workers := runtime.GOMAXPROCS(0)
	scratch := make([]*SearchScratch, workers)
	for w := range scratch {
		scratch[w] = NewSearchScratch()
	}
	// parallel runs f(w, scr) on n workers and waits for them.
	parallel := func(n int, f func(w int, scr *SearchScratch)) {
		var wg sync.WaitGroup
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f(w, scratch[w])
			}()
		}
		wg.Wait()
	}
	plans := make([]P, MaxInsertBatch)
	for lo := 0; lo < n; {
		hi := min(lo+batch, n)
		chunk := (hi - lo + workers - 1) / workers
		parallel((hi-lo+chunk-1)/chunk, func(w int, scr *SearchScratch) {
			for i := lo + w*chunk; i < min(lo+(w+1)*chunk, hi); i++ {
				plans[i-lo] = plan(i, scr)
			}
		})
		parallel(workers, func(w int, scr *SearchScratch) {
			sh := Shard{Scr: scr, w: w, n: workers}
			for i := lo; i < hi; i++ {
				apply(i, plans[i-lo], sh)
			}
		})
		lo = hi
		if batch < MaxInsertBatch {
			batch *= 2
		}
	}
}
