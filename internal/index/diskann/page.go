package diskann

import (
	"fmt"
	"math/rand"
	"slices"

	"svdbench/internal/index"
	"svdbench/internal/index/pq"
)

// Page-node layout (index.LayoutPage): the PageANN-style co-design that makes
// the 4 KiB page — not the node — the logical graph unit. Build groups each
// node with its nearest graph neighbours into page-nodes; search beam-walks
// the page graph and scores *every* resident node a fetched page contains, so
// the bytes a read returns stop being wasted (the paper's O-15 observation is
// exactly that the node-per-page layout wastes them).
//
// The modelled on-page framing sets the byte budget (the simulator moves page
// addresses, not payload bytes, so the budget is the honesty contract — see
// DESIGN.md "Page-node layout"):
//
//	header      16 B   page id, member count, adjacency length, version
//	adjacency   pageDegree × 4 B  inter-page edges embedded in the header
//	members     capacity × (4 B id + dim B SQ8 code)
//
// so capacity = (PageSize − 16 − pageDegree·4) / (4 + dim): 5 members at
// 768-d, 2 at 1536-d. Traversal steering needs no representative bytes in the
// header at all: a page is priced at the best in-memory PQ distance among its
// residents, using the same RAM-resident compressed vectors the node layout
// navigates with.
const (
	pageHeaderBytes = 16
	// pageDegree caps the inter-page adjacency embedded in a page header;
	// matching Vamana's default R keeps the page graph as navigable as the
	// node graph it is built from.
	pageDegree    = 48
	memberIDBytes = 4
)

// pageCapacity returns how many member nodes fit one page group.
func pageCapacity(dim, pageSize int) int {
	c := (pageSize - pageHeaderBytes - pageDegree*4) / (memberIDBytes + dim)
	if c < 1 {
		c = 1
	}
	return c
}

// pagesPerGroupFor returns the page footprint of one full group: 1 whenever
// at least one member fits the budget, ceil(groupBytes/pageSize) for
// dimensionalities so large even a single member overflows a page.
func pagesPerGroupFor(dim, pageSize int) int {
	bytes := pageHeaderBytes + pageDegree*4 + pageCapacity(dim, pageSize)*(memberIDBytes+dim)
	return (bytes + pageSize - 1) / pageSize
}

// pageLayout is the materialised page-node graph of one index: a partition of
// the node rows into page groups plus the inter-page topology embedded in the
// page headers. It is deterministic given the build config (seeded packing,
// strict tie-breaking), so it is never persisted: a loaded index packs it
// again on its first page-layout search.
//
// The id layout is the same structure at capacity 1 (Index.bind): unit i
// holds row i alone, adj is the Vamana graph and entry the medoid, so the
// beam kernel below serves both. Only members, adj and entry are read at
// search time; pageOf and anchors exist for packing and are nil in the id
// layout.
type pageLayout struct {
	// pageOf maps a node row to the page group holding it.
	pageOf []int32
	// members lists each group's resident node rows, anchor first, then in
	// the order the greedy packer admitted them.
	members [][]int32
	// anchors is members[p][0], kept flat for adjacency construction.
	anchors []int32
	// adj is the inter-page adjacency (≤ pageDegree entries per group).
	adj [][]int32
	// entry is the group holding the medoid, the traversal entry point.
	entry int32
}

// pages returns the number of page groups.
func (pl *pageLayout) pages() int { return len(pl.members) }

// buildPageLayout greedily packs the graph into page groups. Nodes are
// visited in a seeded permutation; each unassigned node anchors a new group
// and pulls in its nearest unassigned graph neighbours (expanding the
// candidate pool through admitted members' edges) until the page is full.
// Ties break on ascending row id, so the layout is a pure function of the
// build seed.
func (ix *Index) buildPageLayout() *pageLayout {
	n := ix.data.Len()
	capacity := pageCapacity(ix.data.Dim, ix.cfg.PageSize)
	pl := &pageLayout{pageOf: make([]int32, n)}
	for i := range pl.pageOf {
		pl.pageOf[i] = -1
	}
	// Seed offset keeps the packing permutation independent of the build
	// permutation drawn from the same config seed.
	r := rand.New(rand.NewSource(ix.cfg.Seed + 101))
	order := r.Perm(n)

	// pooled marks pool membership per group: pooled[c] == current group id.
	pooled := make([]int32, n)
	for i := range pooled {
		pooled[i] = -1
	}
	pool := make([]int32, 0, 4*ix.cfg.R)
	for _, u := range order {
		if pl.pageOf[u] >= 0 {
			continue
		}
		pid := int32(len(pl.members))
		group := make([]int32, 1, capacity)
		group[0] = int32(u)
		pl.pageOf[u] = pid
		av := ix.scorer.QueryRow(u)
		pool = pool[:0]
		admit := func(m int32) {
			for _, t := range ix.graph[m] {
				if pl.pageOf[t] < 0 && pooled[t] != pid {
					pooled[t] = pid
					pool = append(pool, t)
				}
			}
		}
		admit(int32(u))
		for len(group) < capacity {
			// Nearest unassigned pool candidate by (distance to the anchor,
			// row id); assigned entries are compacted away as we scan.
			best, bestD := int32(-1), float32(0)
			kept := pool[:0]
			for _, c := range pool {
				if pl.pageOf[c] >= 0 {
					continue
				}
				kept = append(kept, c)
				d := av.Dist(int(c))
				if best < 0 || d < bestD || (d == bestD && c < best) {
					best, bestD = c, d
				}
			}
			pool = kept
			if best < 0 {
				break
			}
			pl.pageOf[best] = pid
			group = append(group, best)
			admit(best)
		}
		pl.members = append(pl.members, group)
		pl.anchors = append(pl.anchors, int32(u))
	}
	pl.entry = pl.pageOf[ix.medoid]
	pl.buildAdjacency(ix)
	return pl
}

// pageCand is one candidate inter-page edge during adjacency construction.
type pageCand struct {
	pid int32
	d   float32
}

// buildAdjacency derives the inter-page topology: group p links to the pages
// holding its members' out-edge targets, ranked by the anchor's distance to
// the nearest such target and capped at pageDegree. Deduplication uses a
// stamp array (never map iteration), so the edge order is deterministic.
func (pl *pageLayout) buildAdjacency(ix *Index) {
	np := pl.pages()
	pl.adj = make([][]int32, np)
	slot := make([]int32, np) // slot[q]-1 indexes cands while stamp[q] == p
	stamp := make([]int32, np)
	for i := range stamp {
		stamp[i] = -1
	}
	cands := make([]pageCand, 0, 4*pageDegree)
	for p := 0; p < np; p++ {
		av := ix.scorer.QueryRow(int(pl.anchors[p]))
		cands = cands[:0]
		for _, m := range pl.members[p] {
			for _, t := range ix.graph[m] {
				q := pl.pageOf[t]
				if int(q) == p {
					continue
				}
				d := av.Dist(int(t))
				if stamp[q] == int32(p) {
					if i := slot[q] - 1; d < cands[i].d {
						cands[i].d = d
					}
					continue
				}
				stamp[q] = int32(p)
				slot[q] = int32(len(cands) + 1)
				cands = append(cands, pageCand{pid: q, d: d})
			}
		}
		slices.SortFunc(cands, func(a, b pageCand) int {
			if a.d != b.d {
				if a.d < b.d {
					return -1
				}
				return 1
			}
			if a.pid != b.pid {
				if a.pid < b.pid {
					return -1
				}
				return 1
			}
			return 0
		})
		deg := len(cands)
		if deg > pageDegree {
			deg = pageDegree
		}
		edges := make([]int32, deg)
		for i := 0; i < deg; i++ {
			edges[i] = cands[i].pid
		}
		pl.adj[p] = edges
	}
}

// units is the view one beam search walks: a layout plus how its unit ids
// map to storage. The id layout is the capacity-1 instance (a unit is a node
// row, ppu = pagesPerNode); the page layout's units are page groups. It is a
// concrete struct of slices — no interface, no type parameter — so the
// kernel's inner loop inlines and stays allocation-free.
type units struct {
	*pageLayout
	// layout names the unit id space; it keys the node caches.
	layout string
	// base is the first storage page of unit 0; unit u occupies the ppu
	// consecutive pages from base + u·ppu.
	base int64
	ppu  int
	// capacity is the most members one unit holds.
	capacity int
}

// unitsOf returns the view of one resolved layout, packing the page layout
// on first use. An unknown layout name panics: the harness layers validate
// user input before it reaches a Search call.
func (ix *Index) unitsOf(layout string) units {
	switch layout {
	case index.LayoutID:
		return units{ix.nodeLay, layout, ix.basePage, ix.pagesPerNode, 1}
	case index.LayoutPage:
		pl := ix.pageLayoutFor() //annlint:allow hotalloc -- one-time deterministic page packing on first page-layout search; every later query reuses the materialised layout
		return units{pl, layout, ix.pageBase, ix.pagesPerGroup, ix.PageCapacity()}
	default:
		panic(fmt.Sprintf("diskann: unknown layout %q", layout))
	}
}

// appendPages appends the storage pages of one unit to dst.
func (u units) appendPages(dst []int64, id int32) []int64 {
	first := u.base + int64(id)*int64(u.ppu)
	for i := 0; i < u.ppu; i++ {
		dst = append(dst, first+int64(i))
	}
	return dst
}

// warmSet returns up to n units in breadth-first order over the adjacency
// from the entry unit — the warm set of a static node cache, mirroring real
// DiskANN's num_nodes_to_cache: the units every beam search crosses first
// are the ones worth pinning. The order is deterministic (adjacency lists
// are deterministic given the build seed).
func (pl *pageLayout) warmSet(n int) []int32 {
	if n > pl.pages() {
		n = pl.pages()
	}
	if n <= 0 {
		return nil
	}
	visited := make([]bool, pl.pages())
	queue := make([]int32, 0, n)
	queue = append(queue, pl.entry)
	visited[pl.entry] = true
	out := make([]int32, 0, n)
	for len(queue) > 0 && len(out) < n {
		cur := queue[0]
		queue = queue[1:]
		out = append(out, cur)
		for _, nb := range pl.adj[cur] {
			if !visited[nb] {
				visited[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	return out
}

// beamLess is the candidate list's order: ascending (Dist, ID). Ids are
// unique in the list, so it is a strict total order and the sorted
// permutation of any set of entries is unique.
func beamLess(a, b index.BeamEntry) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// mergeBeamTail restores the candidate-list invariant at a hop boundary.
// cands[:sorted] is ascending and at most L long — marking an entry Visited
// does not reorder it — and cands[sorted:] is what the last hop pushed, in
// push order. Each tail entry is dropped when the prefix is full and the
// entry is not less than its last, and otherwise shifted into its
// binary-searched slot, evicting the displaced last entry of a full prefix;
// dropped and evicted ids leave inList. Because the order is strict and
// total, the surviving entries, their order and the set of ids removed are
// exactly those of sorting the whole list and truncating it to L, at O(log L)
// comparisons per pushed entry instead of a sort of all of them every hop.
func mergeBeamTail(cands []index.BeamEntry, sorted, L int, inList *index.EpochSet) []index.BeamEntry {
	// The prefix grows by at most one per tail entry consumed, so the shift
	// below never reaches a tail entry that has not been read yet.
	for _, e := range cands[sorted:] {
		if sorted == L {
			if !beamLess(e, cands[L-1]) {
				inList.Remove(e.ID)
				continue
			}
			inList.Remove(cands[L-1].ID)
			sorted--
		}
		lo, hi := 0, sorted
		for lo < hi {
			if mid := int(uint(lo+hi) >> 1); beamLess(cands[mid], e) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		copy(cands[lo+1:sorted+1], cands[lo:sorted])
		cands[lo] = e
		sorted++
	}
	return cands[:sorted]
}

// beamSearch is the package's one beam search (Sec. II-B of the paper): each
// hop takes the W closest unvisited units from the L-bounded candidate list,
// routes them through the node cache, fetches the rest from the device in
// one parallel batch, batch-scores every member a fetched unit contains with
// exact distances (full-precision re-rank), and feeds the units' adjacency
// back into the list, pricing a unit at the best in-memory PQ distance among
// its members. Candidate list, beam, cache and look-ahead all operate on
// units. L counts units, floored at ceil(k/capacity) so the result set can
// always fill: that is k for the id layout, and for the page layout a list
// of 3 pages covers ~15 nodes at 768-d, which is where its device-read
// savings at equal recall come from.
//
// The candidate list is a sorted prefix plus an unsorted tail: a hop's pushes
// append to the tail, and the top of the next hop merges the tail into the
// prefix (mergeBeamTail) instead of re-sorting the list. Eviction happens
// only there, at the hop boundary: a unit evicted mid-hop would leave inList,
// so a later member of the same beam could push it again and price it a
// second time, which changes PQComps and with it the recorded CPU. Results,
// Stats and the recorded execution of both layouts are pinned by
// testdata/profiles.golden.
func (ix *Index) beamSearch(u units, q []float32, k int, opts index.SearchOptions, dst *index.Result) {
	L := opts.SearchList
	if minL := (k + u.capacity - 1) / u.capacity; L < minL {
		L = minL
	}
	if L < 1 {
		L = 1
	}
	W := opts.BeamWidth
	if W <= 0 {
		W = 4
	}
	rec := opts.Recorder
	stats := index.Stats{}
	cache := ix.caches.For(opts.NodeCachePolicy, opts.NodeCacheNodes, u.layout)
	la := opts.LookAhead
	scr := index.ScratchFor(opts)
	// inList tracks candidate-list membership; inFlight tracks units whose
	// pages a prior hop speculatively issued and no hop has demanded yet (a
	// later demand joins the in-flight read at replay instead of issuing a
	// duplicate).
	inList := &scr.Visited
	inList.Begin(u.pages())
	var inFlight *index.EpochSet
	if la > 0 {
		inFlight = &scr.InFlight
		inFlight.Begin(u.pages())
	}

	qs := ix.scorer.Query(q)
	scr.Table = ix.quantizer.BuildTableInto(q, scr.Table)
	table := pq.Table(scr.Table)
	// Table construction cost: 256 sub-distance rows over the full dim.
	rec.AddWork(index.Work{Dist: 256, Dim: uint16(ix.data.Dim)})
	m := ix.quantizer.M()

	cands := scr.Cands[:0]
	// Steering: a unit is priced at the best in-memory PQ distance among its
	// members. The per-node compressed vectors are RAM-resident in either
	// layout, so page routing costs zero extra page bytes — just capacity×
	// the PQ lookups, which are counted below. admit appends a new unit
	// and counts its member rows in adc. A unit this query already priced
	// (evicted at a hop boundary, now admitted again) takes its memoised
	// price; any other is appended unpriced with its rows queued in scr.IDs.
	// price scores the queue in one pq.Table.DistanceRows, gives each
	// unpriced unit in cands[from:] its members' minimum (member order,
	// strict <) and memoises it. The counts include memo hits: a real beam
	// re-prices an evicted unit, so the model charges it, and only the host
	// skips recomputing a value it already has.
	priced, prices := &scr.Priced, index.Grow(scr.Prices, u.pages())
	priced.Begin(u.pages())
	adc := 0
	admit := func(id int32) {
		if inList.Contains(id) {
			return
		}
		inList.Add(id)
		adc += len(u.members[id])
		if priced.Contains(id) {
			cands = append(cands, index.BeamEntry{ID: id, Dist: prices[id]})
			return
		}
		scr.IDs = append(scr.IDs, u.members[id]...)
		cands = append(cands, index.BeamEntry{ID: id})
	}
	price := func(from int) {
		scr.Dists = index.Grow(scr.Dists, len(scr.IDs))
		table.DistanceRows(ix.codes, m, scr.IDs, scr.Dists)
		dists := scr.Dists
		for i := from; i < len(cands); i++ {
			id := cands[i].ID
			if priced.Contains(id) {
				continue
			}
			n := len(u.members[id])
			d := dists[0]
			for _, md := range dists[1:n] {
				if md < d {
					d = md
				}
			}
			cands[i].Dist, prices[id] = d, d
			priced.Add(id)
			dists = dists[n:]
		}
		stats.PQComps += adc
	}
	scr.IDs = scr.IDs[:0]
	admit(u.entry)
	price(0)

	exact := &scr.Bounded // re-ranked results by full-precision distance
	exact.Reset()
	beam := scr.Beam[:0]
	pages := scr.Pages[:0]
	sorted := 0 // cands[:sorted] is ascending; the rest is this hop's pushes
	for {
		// Pick the W closest unvisited candidates of the merged list.
		cands = mergeBeamTail(cands, sorted, L, inList)
		sorted = len(cands)
		beam = beam[:0]
		for i := range cands {
			if !cands[i].Visited {
				beam = append(beam, i)
				if len(beam) == W {
					break
				}
			}
		}
		if len(beam) == 0 {
			break
		}
		stats.Hops++
		// Fetch the beam from storage (one parallel batch), routing each
		// unit through the node cache first: a hit serves the unit's pages
		// at in-memory cost instead of issuing device reads.
		pages = pages[:0]
		cachedPages := 0
		for _, bi := range beam {
			id := cands[bi].ID
			if cache != nil && cache.Touch(id, u.ppu) {
				cachedPages += u.ppu
				continue
			}
			if la > 0 && inFlight.Contains(id) {
				// Pages still count in PagesRead — demand accounting is
				// invariant under look-ahead.
				stats.PrefetchUsed += u.ppu
				inFlight.Remove(id)
			}
			pages = u.appendPages(pages, id)
		}
		stats.PagesRead += len(pages)
		stats.CachePages += cachedPages
		rec.AddWork(index.Work{Heap: int32(len(cands))})
		rec.AddCacheHit(cachedPages)
		// Look-ahead: speculatively issue the pages of the next la unvisited
		// candidates beyond the beam alongside this hop's demand I/O. The
		// scan only peeks (Contains, not Touch) and counts no work, so the
		// recorded demand execution stays byte-identical to LookAhead==0.
		if la > 0 {
			picked := 0
			for i := beam[len(beam)-1] + 1; i < len(cands) && picked < la; i++ {
				id := cands[i].ID
				if cands[i].Visited || inFlight.Contains(id) {
					continue
				}
				if cache != nil && cache.Contains(id) {
					continue
				}
				inFlight.Add(id)
				scr.PF = u.appendPages(scr.PF[:0], id)
				stats.PrefetchPages += len(scr.PF)
				rec.AddPrefetch(index.PrefetchRun{Pages: scr.PF})
				picked++
			}
		}
		rec.AddIO(pages)
		// Expand each fetched unit: every member is batch-scored exactly up
		// front, bit-identical to per-node calls (this is the page layout's
		// payoff — one read, capacity re-ranked nodes). Then the units'
		// adjacency feeds the candidate list — beam order, then adjacency
		// order, the inList sequence of pushing unit by unit — and the new
		// units are priced in one batch.
		scr.IDs = scr.IDs[:0]
		for _, bi := range beam {
			scr.IDs = append(scr.IDs, u.members[cands[bi].ID]...)
		}
		scr.Dists = index.Grow(scr.Dists, len(scr.IDs))
		qs.DistBatch(scr.IDs, scr.Dists)
		for j, row := range scr.IDs {
			extID := ix.extID(row)
			if opts.Filter == nil || opts.Filter(extID) {
				exact.PushBounded(index.Neighbor{ID: extID, Dist: scr.Dists[j]}, k)
			}
		}
		reranked := len(scr.IDs)
		stats.DistComps += reranked
		scr.IDs, adc = scr.IDs[:0], 0
		for _, bi := range beam {
			cands[bi].Visited = true
			for _, nb := range u.adj[cands[bi].ID] {
				admit(nb)
			}
		}
		price(sorted)
		rec.AddWork(index.Work{Dist: int32(reranked), ADC: int32(adc), Dim: uint16(ix.data.Dim), M: uint16(m)})
	}
	rec.Flush()
	scr.Cands, scr.Beam, scr.Pages, scr.Prices = cands, beam, pages, prices
	scr.Neighbors = exact.DrainAscending(scr.Neighbors[:0])
	index.ResultInto(scr.Neighbors, k, stats, dst)
}
