package diskann

import (
	"fmt"
	"reflect"
	"testing"

	"svdbench/internal/dataset"
	"svdbench/internal/index"
	"svdbench/internal/index/pq"
	"svdbench/internal/storage/nodecache"
	"svdbench/internal/vec"
)

// refBeamSearch is beamSearch as it was before the per-query price memo:
// every admit queues the unit's member rows and every price call scores all
// of them, so a unit evicted at a hop boundary and admitted again is priced
// a second time. It is kept as the reference the memo must reproduce, and
// it reports how many admissions re-admitted a unit this query had already
// admitted (and so priced).
func (ix *Index) refBeamSearch(u units, q []float32, k int, opts index.SearchOptions, dst *index.Result) (readmits int) {
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
	inList := &scr.Visited
	inList.Begin(u.pages())
	var inFlight *index.EpochSet
	if la > 0 {
		inFlight = &scr.InFlight
		inFlight.Begin(u.pages())
	}
	admitted := make([]bool, u.pages())

	qs := ix.scorer.Query(q)
	scr.Table = ix.quantizer.BuildTableInto(q, scr.Table)
	table := pq.Table(scr.Table)
	rec.AddWork(index.Work{Dist: 256, Dim: uint16(ix.data.Dim)})
	m := ix.quantizer.M()

	cands := scr.Cands[:0]
	admit := func(id int32) {
		if inList.Contains(id) {
			return
		}
		inList.Add(id)
		if admitted[id] {
			readmits++
		}
		admitted[id] = true
		scr.IDs = append(scr.IDs, u.members[id]...)
		cands = append(cands, index.BeamEntry{ID: id})
	}
	price := func(from int) {
		scr.Dists = index.Grow(scr.Dists, len(scr.IDs))
		table.DistanceRows(ix.codes, m, scr.IDs, scr.Dists)
		dists := scr.Dists
		for i := from; i < len(cands); i++ {
			n := len(u.members[cands[i].ID])
			d := dists[0]
			for _, md := range dists[1:n] {
				if md < d {
					d = md
				}
			}
			cands[i].Dist = d
			dists = dists[n:]
		}
		stats.PQComps += len(scr.IDs)
	}
	scr.IDs = scr.IDs[:0]
	admit(u.entry)
	price(0)

	exact := &scr.Bounded
	exact.Reset()
	beam := scr.Beam[:0]
	pages := scr.Pages[:0]
	sorted := 0
	for {
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
		pages = pages[:0]
		cachedPages := 0
		for _, bi := range beam {
			id := cands[bi].ID
			if cache != nil && cache.Touch(id, u.ppu) {
				cachedPages += u.ppu
				continue
			}
			if la > 0 && inFlight.Contains(id) {
				stats.PrefetchUsed += u.ppu
				inFlight.Remove(id)
			}
			pages = u.appendPages(pages, id)
		}
		stats.PagesRead += len(pages)
		stats.CachePages += cachedPages
		rec.AddWork(index.Work{Heap: int32(len(cands))})
		rec.AddCacheHit(cachedPages)
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
		scr.IDs = scr.IDs[:0]
		for _, bi := range beam {
			cands[bi].Visited = true
			for _, nb := range u.adj[cands[bi].ID] {
				admit(nb)
			}
		}
		price(sorted)
		rec.AddWork(index.Work{Dist: int32(reranked), ADC: int32(len(scr.IDs)), Dim: uint16(ix.data.Dim), M: uint16(m)})
	}
	rec.Flush()
	scr.Cands, scr.Beam, scr.Pages = cands, beam, pages
	scr.Neighbors = exact.DrainAscending(scr.Neighbors[:0])
	index.ResultInto(scr.Neighbors, k, stats, dst)
	return readmits
}

// TestPriceMemoMatchesReference is the differential test of the per-query
// price memo: over small seeded indexes of low degree, both layouts, look-
// ahead 0 and 2, and no node cache, a static one and an LRU one, beamSearch
// (one scratch reused throughout) must return the reference's ids and
// distances, its Stats — PQComps counting memo hits as re-priced rows — and
// its recorded Steps. Small candidate lists evict often, and the test fails
// if no query ever re-admits a unit, so the memo's hit path is exercised.
// Each side starts from fresh node caches, since an LRU cache's state
// depends on every search before.
func TestPriceMemoMatchesReference(t *testing.T) {
	const k = 10
	scr := index.NewSearchScratch()
	readmits := map[string]int{}
	for seed := int64(1); seed <= 3; seed++ {
		ds := dataset.Generate(dataset.Spec{
			Name: "memo", N: 240, Dim: 16, NumQueries: 12,
			Clusters: 6, Seed: seed, Metric: vec.L2, GroundK: k,
		})
		for _, pageSize := range []int{256, 512} {
			cfg := Config{R: 6, LBuild: 24, PQM: 4, PageSize: pageSize, Metric: vec.L2, Seed: seed}
			ix, err := Build(ds.Vectors, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			next := int64(11)
			ix.AssignPages(func(np int64) int64 { p := next; next += np + 5; return p })
			for _, layout := range []string{index.LayoutID, index.LayoutPage} {
				for _, la := range []int{0, 2} {
					for _, policy := range []string{"", index.NodeCacheStatic, index.NodeCacheLRU} {
						for _, lw := range [][2]int{{4, 1}, {6, 4}, {16, 2}} {
							opts := index.SearchOptions{SearchList: lw[0], BeamWidth: lw[1], LookAhead: la, Layout: layout}
							if policy != "" {
								opts.NodeCachePolicy, opts.NodeCacheNodes = policy, 8
							}
							name := fmt.Sprintf("seed %d page %d %s la %d cache %q L %d W %d", seed, pageSize, layout, la, policy, lw[0], lw[1])
							readmits[layout] += comparePriceMemo(t, name, ds, ix, opts, k, scr)
						}
					}
				}
			}
		}
	}
	for _, layout := range []string{index.LayoutID, index.LayoutPage} {
		if readmits[layout] == 0 {
			t.Errorf("%s layout: no query re-admitted a unit; the memo's hit path went untested", layout)
		}
	}
	t.Logf("re-admissions: %v", readmits)
}

// comparePriceMemo runs every query of ds through the reference and then
// through beamSearch on fresh node caches, and returns the reference's
// re-admissions.
func comparePriceMemo(t *testing.T, name string, ds *dataset.Dataset, ix *Index, opts index.SearchOptions, k int, scr *index.SearchScratch) int {
	t.Helper()
	u := ix.unitsOf(ix.layoutFor(opts))
	nq := ds.Queries.Len()
	want := make([]index.Result, nq)
	wantProf := make([]index.Profile, nq)
	readmits := 0
	ix.caches = nodecache.NewSet(ix.cfg.PageSize, ix.warmCache)
	for qi := range want {
		o := opts
		o.Recorder = &wantProf[qi]
		readmits += ix.refBeamSearch(u, ds.Queries.Row(qi), k, o, &want[qi])
	}
	ix.caches = nodecache.NewSet(ix.cfg.PageSize, ix.warmCache)
	var got index.Result
	for qi := range want {
		var prof index.Profile
		o := opts
		o.Recorder, o.Scratch = &prof, scr
		ix.beamSearch(u, ds.Queries.Row(qi), k, o, &got)
		w := want[qi]
		if !reflect.DeepEqual(got.IDs, w.IDs) || !reflect.DeepEqual(got.Dists, w.Dists) {
			t.Fatalf("%s query %d: results differ\n got %v %v\nwant %v %v", name, qi, got.IDs, got.Dists, w.IDs, w.Dists)
		}
		if got.Stats != w.Stats {
			t.Fatalf("%s query %d: stats %+v, want %+v", name, qi, got.Stats, w.Stats)
		}
		if !reflect.DeepEqual(prof.Steps, wantProf[qi].Steps) {
			t.Fatalf("%s query %d: recorded steps differ from the reference", name, qi)
		}
	}
	return readmits
}
