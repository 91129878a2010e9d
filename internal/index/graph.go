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
// memo is nil, or the PruneMemo Reprune set up for cands: c is dropped at
// once if a pair it holds occludes c, a batch it holds whole is skipped,
// and every scored pair is held. The kept set is the same.
//
// Prune marks the kept positions of cands in scr.Kept and returns the kept
// ids, closest first, in a fresh slice of capacity m. scr.Dists is its
// distance buffer, scr.Slots the memo slots of the kept ids.
func Prune(scr *SearchScratch, cands []Neighbor, m int, memo *PruneMemo,
	score func(c int32, lo int, kept []int32, out []float32),
	occludes func(d float32, c Neighbor) bool) []int32 {
	kept := make([]int32, 0, m)
	scr.Kept = Grow(scr.Kept, len(cands))
	clear(scr.Kept)
	scr.Dists = Grow(scr.Dists, selBatch)
	slots := scr.Slots[:0]
next:
	for i, c := range cands {
		if len(kept) == m {
			break
		}
		var sc int32
		if memo != nil {
			sc = memo.order[i]
			for _, s := range slots {
				if k, ok := memo.at(sc, s); ok && occludes(memo.pair[k], c) {
					continue next
				}
			}
		}
		for lo := 0; lo < len(kept); lo += selBatch {
			n := min(selBatch, len(kept)-lo)
			if memo != nil && memo.holds(sc, slots[lo:lo+n]) {
				continue
			}
			ds := scr.Dists[:n]
			score(c.ID, lo, kept[lo:lo+n], ds)
			if memo != nil {
				memo.remember(sc, slots[lo:lo+n], ds)
			}
			for _, d := range ds {
				if occludes(d, c) {
					continue next
				}
			}
		}
		scr.Kept[i] = true
		kept = append(kept, c.ID)
		slots = append(slots, sc)
	}
	scr.Slots = slots
	return kept
}

// Relink adds target to a node's neighbour list, the reverse of an edge a
// new node links: the apply step of both graph builders. A list that
// already holds target is returned unchanged; otherwise target is appended,
// and once the list is longer than over it is re-scored and re-pruned to m
// (Reprune, with the node's memo if the builder keeps one).
func Relink(scr *SearchScratch, list []int32, target int32, over, m int, memo *PruneMemo,
	rescore func(ids []int32, out []float32),
	prune func(cands []Neighbor, m int) []int32) []int32 {
	if slices.Contains(list, target) {
		return list
	}
	list = append(list, target)
	if len(list) <= over {
		return list
	}
	return Reprune(scr, list, m, memo, rescore, prune)
}

// Reprune re-scores a node's neighbour list from the node in one batch
// (rescore writes the distance of every listed id into out), sorts it into
// scr.Scored by (Dist, ID) and returns prune's selection of at most m of it.
//
// memo, if not nil, is the node's PruneMemo: prune must hand it to Prune
// and leave exactly one candidate out. Once it is set up, list is the last
// selection plus one id, and only that id is scored and placed by insertion.
func Reprune(scr *SearchScratch, list []int32, m int, memo *PruneMemo,
	rescore func(ids []int32, out []float32),
	prune func(cands []Neighbor, m int) []int32) []int32 {
	if memo != nil && memo.ids != nil {
		last := list[len(list)-1:]
		scr.Dists = Grow(scr.Dists, 1)
		rescore(last, scr.Dists)
		scr.Scored = memo.place(Neighbor{ID: last[0], Dist: scr.Dists[0]}, scr.Scored[:0])
	} else {
		scr.Dists = Grow(scr.Dists, len(list))
		rescore(list, scr.Dists)
		scr.Scored = scr.Scored[:0]
		for i, id := range list {
			scr.Scored = append(scr.Scored, Neighbor{ID: id, Dist: scr.Dists[i]})
		}
		SortNeighbors(scr.Scored)
		if memo != nil {
			memo.init(scr.Scored)
		}
	}
	sel := prune(scr.Scored, m)
	if memo != nil {
		memo.leaveOut(sel)
	}
	return sel
}

// PruneMemo is what a node's re-prunes at its degree cap remember for the
// next (DESIGN.md "Graph toolkit"): the members in fixed slots, one more
// than the cap, where the member a re-prune leaves out frees its slot for
// the next appended id; their distances from the node; and the pair
// distances Prune scored. A member's distance never changes, so two members
// keep their order while both stay and Prune scores their pair one way
// only, the later candidate against the earlier kept one: the triangular
// table holds that d(later, earlier). The zero memo is empty.
type PruneMemo struct {
	ids   []int32   // the member in each slot
	dist  []float32 // each slot's distance from the node
	order []int32   // the occupied slots, ascending by (dist, id)
	pair  []float32 // d(later, earlier) of slots a > b at a(a-1)/2 + b
	known []uint64  // one bit per pair held
	free  int32     // the slot the last re-prune left out
}

// init sets the memo up over a node's first sorted candidate list.
func (p *PruneMemo) init(cands []Neighbor) {
	n := len(cands)
	ints, floats := make([]int32, 2*n), make([]float32, n+n*(n-1)/2)
	p.ids, p.order, p.dist, p.pair = ints[:n:n], ints[n:], floats[:n:n], floats[n:]
	for i, c := range cands {
		p.ids[i], p.dist[i], p.order[i] = c.ID, c.Dist, int32(i)
	}
	p.known = make([]uint64, (len(p.pair)+63)/64)
}

// place puts c into the free slot and its sorted place, and appends the
// members, in order, to dst: the re-prune's candidates.
func (p *PruneMemo) place(c Neighbor, dst []Neighbor) []Neighbor {
	p.ids[p.free], p.dist[p.free] = c.ID, c.Dist
	at := slices.IndexFunc(p.order, func(s int32) bool { return neighborLess(c, Neighbor{ID: p.ids[s], Dist: p.dist[s]}) })
	if at < 0 {
		at = len(p.order)
	}
	p.order = slices.Insert(p.order, at, p.free)
	for _, s := range p.order {
		dst = append(dst, Neighbor{ID: p.ids[s], Dist: p.dist[s]})
	}
	return dst
}

// leaveOut frees the slot of the one candidate that sel, a subsequence of
// the candidates, left out, and forgets that slot's pairs.
func (p *PruneMemo) leaveOut(sel []int32) {
	if len(sel) != len(p.order)-1 {
		panic("index: a memoised re-prune must leave exactly one candidate out")
	}
	out := len(sel)
	for i, id := range sel {
		if p.ids[p.order[i]] != id {
			out = i
			break
		}
	}
	p.free = p.order[out]
	p.order = slices.Delete(p.order, out, out+1)
	for s := range int32(len(p.ids)) {
		if s != p.free {
			k, _ := p.at(p.free, s)
			p.known[k/64] &^= 1 << (k % 64)
		}
	}
}

// at returns the table index of the pair of slots c != s, and whether the
// pair is held.
func (p *PruneMemo) at(c, s int32) (int, bool) {
	if c < s {
		c, s = s, c
	}
	k := int(c)*int(c-1)/2 + int(s)
	return k, p.known[k/64]&(1<<(k%64)) != 0
}

// holds reports whether d(c, s) is held for every s in kept.
func (p *PruneMemo) holds(c int32, kept []int32) bool {
	for _, s := range kept {
		if _, ok := p.at(c, s); !ok {
			return false
		}
	}
	return true
}

// remember holds ds[i] as d(c, kept[i]).
func (p *PruneMemo) remember(c int32, kept []int32, ds []float32) {
	for i, s := range kept {
		k, _ := p.at(c, s)
		p.pair[k] = ds[i]
		p.known[k/64] |= 1 << (k % 64)
	}
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
