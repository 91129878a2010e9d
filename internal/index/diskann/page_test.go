package diskann

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"

	"svdbench/internal/binenc"
	"svdbench/internal/dataset"
	"svdbench/internal/index"
	"svdbench/internal/vec"
)

// pageOpts is the standard page-layout variant of uncachedOpts.
func pageOpts() index.SearchOptions {
	return uncachedOpts().With(index.WithLayout(index.LayoutPage))
}

// sharedPaged returns the shared test index with storage assigned, so page
// addresses exist for both layouts.
func sharedPaged(t *testing.T) (*dataset.Dataset, *Index) {
	t.Helper()
	ds, ix := shared(t)
	var next int64
	ix.AssignPages(func(n int64) int64 { p := next; next += n; return p })
	return ds, ix
}

func TestPageCapacityByDimension(t *testing.T) {
	// Budget: 4096 − 16 header − 48·4 adjacency = 3888 B for members of
	// 4 B id + dim B SQ8 code each.
	cases := []struct {
		dim, capacity, groups int
	}{
		{768, 5, 1},
		{1536, 2, 1},
		{32, 108, 1},
	}
	for _, c := range cases {
		if got := pageCapacity(c.dim, 4096); got != c.capacity {
			t.Errorf("dim %d: capacity %d, want %d", c.dim, got, c.capacity)
		}
		if got := pagesPerGroupFor(c.dim, 4096); got != c.groups {
			t.Errorf("dim %d: pages/group %d, want %d", c.dim, got, c.groups)
		}
	}
	// A dimensionality too large for one page spills into a multi-page group
	// rather than underflowing capacity.
	if got := pageCapacity(8192, 4096); got != 1 {
		t.Errorf("8192-d capacity %d, want floor 1", got)
	}
	if got := pagesPerGroupFor(8192, 4096); got != 3 {
		// 16 + 192 + (4+8192) = 8404 B → 3 pages.
		t.Errorf("8192-d pages/group %d, want 3", got)
	}
}

// TestPagePackingPartition: the packer produces an exact partition of the
// node rows — anchor first, capacity respected, adjacency in range — and the
// entry group holds the medoid.
func TestPagePackingPartition(t *testing.T) {
	_, ix := shared(t)
	pl := ix.pageLayoutFor()
	capacity := ix.PageCapacity()
	seen := make([]int32, ix.Len())
	for i := range seen {
		seen[i] = -1
	}
	for p, members := range pl.members {
		if len(members) == 0 || len(members) > capacity {
			t.Fatalf("group %d holds %d members, capacity %d", p, len(members), capacity)
		}
		if members[0] != pl.anchors[p] {
			t.Fatalf("group %d anchor %d is not its first member %d", p, pl.anchors[p], members[0])
		}
		for _, row := range members {
			if seen[row] >= 0 {
				t.Fatalf("row %d in groups %d and %d", row, seen[row], p)
			}
			seen[row] = int32(p)
			if pl.pageOf[row] != int32(p) {
				t.Fatalf("pageOf[%d] = %d, want %d", row, pl.pageOf[row], p)
			}
		}
		if len(pl.adj[p]) > pageDegree {
			t.Fatalf("group %d degree %d exceeds %d", p, len(pl.adj[p]), pageDegree)
		}
		for _, q := range pl.adj[p] {
			if q < 0 || int(q) >= pl.pages() || int(q) == p {
				t.Fatalf("group %d has out-of-range edge %d", p, q)
			}
		}
	}
	for row, p := range seen {
		if p < 0 {
			t.Fatalf("row %d unassigned", row)
		}
	}
	if pl.pageOf[ix.medoid] != pl.entry {
		t.Fatalf("entry %d does not hold medoid", pl.entry)
	}
}

// TestPageLayoutSeedStable: packing is a pure function of the build config —
// two builds from the same seed pack identical layouts, and a different seed
// packs a different one (the tie-breaking is seeded, not incidental).
func TestPageLayoutSeedStable(t *testing.T) {
	ds := testData(t)
	a := build(t, ds, Config{R: 32, LBuild: 64, PQM: 8}).pageLayoutFor()
	b := build(t, ds, Config{R: 32, LBuild: 64, PQM: 8}).pageLayoutFor()
	if !reflect.DeepEqual(a.members, b.members) || !reflect.DeepEqual(a.adj, b.adj) {
		t.Fatal("same-seed builds produced different page layouts")
	}
	c := build(t, ds, Config{R: 32, LBuild: 64, PQM: 8, Seed: 2}).pageLayoutFor()
	if reflect.DeepEqual(a.members, c.members) {
		t.Fatal("different seeds produced identical page layouts (tie-breaking not seeded)")
	}
}

// TestPageSearchRecallAtEqualSearchList is the cross-layout identity check:
// at equal search_list the page layout must be at least as accurate as the
// ID layout minus tolerance — one page fetch re-ranks several co-located
// nodes, so recall can only benefit at the same candidate-list bound.
func TestPageSearchRecallAtEqualSearchList(t *testing.T) {
	ds, ix := sharedPaged(t)
	idRecall := dataset.MeanRecallAtK(searchAll(ds, ix, 10, uncachedOpts()), ds.GroundTruth, 10)
	pageRecall := dataset.MeanRecallAtK(searchAll(ds, ix, 10, pageOpts()), ds.GroundTruth, 10)
	if pageRecall < idRecall-0.02 {
		t.Errorf("page recall %v below id recall %v - 0.02 at equal search_list", pageRecall, idRecall)
	}
}

// TestPageSearchDeterministic: repeated searches return identical results.
func TestPageSearchDeterministic(t *testing.T) {
	ds, ix := sharedPaged(t)
	for qi := 0; qi < 5; qi++ {
		q := ds.Queries.Row(qi)
		a := ix.Search(q, 10, pageOpts())
		b := ix.Search(q, 10, pageOpts())
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("query %d: page search not deterministic", qi)
		}
	}
}

// TestPageSearchCutsDeviceReads is the index-level acceptance shape: at a
// page candidate list sized to match the ID layout's recall, the page layout
// reads substantially fewer pages per query.
func TestPageSearchCutsDeviceReads(t *testing.T) {
	ds, ix := sharedPaged(t)
	idOpts := uncachedOpts()
	idRecall := dataset.MeanRecallAtK(searchAll(ds, ix, 10, idOpts), ds.GroundTruth, 10)

	// Smallest page-list L whose recall is within 0.005 of the ID layout.
	pOpts := pageOpts()
	for L := 1; ; L++ {
		pOpts.SearchList = L
		r := dataset.MeanRecallAtK(searchAll(ds, ix, 10, pOpts), ds.GroundTruth, 10)
		if r >= idRecall-0.005 || L >= idOpts.SearchList {
			break
		}
	}
	var idPages, pagePages int
	for qi := 0; qi < ds.Queries.Len(); qi++ {
		q := ds.Queries.Row(qi)
		idPages += ix.Search(q, 10, idOpts).Stats.PagesRead
		pagePages += ix.Search(q, 10, pOpts).Stats.PagesRead
	}
	if float64(pagePages) > 0.7*float64(idPages) {
		t.Errorf("page layout read %d pages vs id %d — less than 30%% reduction at matched recall", pagePages, idPages)
	}
}

// TestPageProfileInterleavesComputeAndIO mirrors the node-layout profile
// test: recorded I/O equals demand stats and one I/O step per hop.
func TestPageProfileInterleavesComputeAndIO(t *testing.T) {
	ds, ix := sharedPaged(t)
	res, prof := recordOne(ix, ds.Queries.Row(0), pageOpts())
	pages, _ := profilePages(&prof)
	if pages == 0 {
		t.Fatal("no I/O recorded")
	}
	if pages != res.Stats.PagesRead {
		t.Errorf("profile pages %d != stats pages %d", pages, res.Stats.PagesRead)
	}
	ioSteps := 0
	for _, s := range prof.Steps {
		if len(s.Pages) > 0 {
			ioSteps++
			if len(s.Pages) > 4*ix.PagesPerGroup() {
				t.Errorf("beam step fetched %d pages, exceeds W×pages/group", len(s.Pages))
			}
		}
	}
	if ioSteps != res.Stats.Hops {
		t.Errorf("io steps %d != hops %d", ioSteps, res.Stats.Hops)
	}
}

// TestPageLookAheadResultsAndDemandIdentical: the look-ahead invariant holds
// on the page path too — speculation changes when pages are read, never what
// the search returns or demands.
func TestPageLookAheadResultsAndDemandIdentical(t *testing.T) {
	ds, ix := sharedPaged(t)
	base := pageOpts()
	for _, la := range []int{1, 2, 8} {
		for qi := 0; qi < 10; qi++ {
			q := ds.Queries.Row(qi)
			want, wantProf := recordOne(ix, q, base)
			got, gotProf := recordOne(ix, q, base.With(index.WithLookAhead(la)))
			if !reflect.DeepEqual(want.IDs, got.IDs) || !reflect.DeepEqual(want.Dists, got.Dists) {
				t.Fatalf("la=%d query %d: results changed", la, qi)
			}
			ws, gs := want.Stats, got.Stats
			gs.PrefetchPages, gs.PrefetchUsed = 0, 0
			if ws != gs {
				t.Fatalf("la=%d query %d: demand stats changed: %+v vs %+v", la, qi, ws, gs)
			}
			if got.Stats.PrefetchUsed > got.Stats.PrefetchPages {
				t.Fatalf("la=%d query %d: used %d > issued %d", la, qi, got.Stats.PrefetchUsed, got.Stats.PrefetchPages)
			}
			if len(wantProf.Steps) != len(gotProf.Steps) {
				t.Fatalf("la=%d query %d: step count changed", la, qi)
			}
			for si := range wantProf.Steps {
				w, g := wantProf.Steps[si], gotProf.Steps[si]
				g.Prefetch = nil
				w.Prefetch = nil
				if !reflect.DeepEqual(w, g) {
					t.Fatalf("la=%d query %d step %d: demand step changed", la, qi, si)
				}
			}
		}
	}
}

// TestPageCacheResultsIdenticalAndReducesReads: the node cache composes with
// the page layout — results stay byte-identical while a static page cache
// absorbs device reads.
func TestPageCacheResultsIdenticalAndReducesReads(t *testing.T) {
	ds, ix := sharedPaged(t)
	base := pageOpts()
	cached := cachedOpts(index.NodeCacheStatic, 8).With(index.WithLayout(index.LayoutPage))
	var basePages, cachedPages, cacheHits int
	for qi := 0; qi < ds.Queries.Len(); qi++ {
		q := ds.Queries.Row(qi)
		a := ix.Search(q, 10, base)
		b := ix.Search(q, 10, cached)
		if !reflect.DeepEqual(a.IDs, b.IDs) || !reflect.DeepEqual(a.Dists, b.Dists) {
			t.Fatalf("query %d: cached page search changed results", qi)
		}
		if b.Stats.PagesRead+b.Stats.CachePages != a.Stats.PagesRead {
			t.Fatalf("query %d: page conservation violated: %d+%d != %d",
				qi, b.Stats.PagesRead, b.Stats.CachePages, a.Stats.PagesRead)
		}
		basePages += a.Stats.PagesRead
		cachedPages += b.Stats.PagesRead
		cacheHits += b.Stats.CachePages
	}
	if cacheHits == 0 {
		t.Error("static page cache absorbed nothing")
	}
	if cachedPages >= basePages {
		t.Errorf("cached reads %d not below uncached %d", cachedPages, basePages)
	}
}

// TestPageSearchBatchMatchesSearch: the batch driver serves the page layout
// identically at any GOMAXPROCS, the batch's width.
func TestPageSearchBatchMatchesSearch(t *testing.T) {
	ds, ix := sharedPaged(t)
	opts := pageOpts()
	queries := make([][]float32, ds.Queries.Len())
	want := make([]index.Result, len(queries))
	for qi := range queries {
		queries[qi] = ds.Queries.Row(qi)
		want[qi] = ix.Search(queries[qi], 10, opts)
	}
	for _, workers := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(workers)
		got := index.BatchRun(context.Background(), len(queries), opts,
			func(qi int, o index.SearchOptions) index.Result { return ix.Search(queries[qi], 10, o) })
		runtime.GOMAXPROCS(prev)
		for qi := range queries {
			if !reflect.DeepEqual(want[qi], got[qi]) {
				t.Fatalf("workers=%d query %d: batch result differs", workers, qi)
			}
		}
	}
}

// TestPageLazyPackConcurrentSearch: the first page-layout searches of a
// fresh index race to pack its layout; they must return exactly what a
// second fresh index returns when searched serially.
func TestPageLazyPackConcurrentSearch(t *testing.T) {
	ds := dataset.Generate(dataset.Spec{
		Name: "diskann-lazy-pack", N: 400, Dim: 16, NumQueries: 32,
		Clusters: 8, Seed: 5, Metric: vec.Cosine, GroundK: 1,
	})
	fresh := func() *Index {
		ix := build(t, ds, Config{R: 16, LBuild: 32, PQM: 4})
		var next int64
		ix.AssignPages(func(n int64) int64 { p := next; next += n; return p })
		return ix
	}
	serial, concurrent := fresh(), fresh()
	opts := pageOpts()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	got := index.BatchRun(context.Background(), ds.Queries.Len(), opts,
		func(qi int, o index.SearchOptions) index.Result { return concurrent.Search(ds.Queries.Row(qi), 10, o) })
	for qi := range got {
		if want := serial.Search(ds.Queries.Row(qi), 10, opts); !reflect.DeepEqual(want, got[qi]) {
			t.Fatalf("query %d: concurrent first searches differ from serial ones", qi)
		}
	}
}

// TestPageSearchSteadyStateZeroAlloc pins the page path to the zero-alloc
// contract: with a reused scratch and dst, a steady-state page-layout query
// performs no heap allocations.
func TestPageSearchSteadyStateZeroAlloc(t *testing.T) {
	ds, ix := sharedPaged(t)
	opts := pageOpts()
	opts.Scratch = index.NewSearchScratch()
	var dst index.Result
	for qi := 0; qi < ds.Queries.Len(); qi++ {
		ix.SearchInto(ds.Queries.Row(qi), 10, opts, &dst)
	}
	qi := 0
	allocs := testing.AllocsPerRun(20, func() {
		ix.SearchInto(ds.Queries.Row(qi%ds.Queries.Len()), 10, opts, &dst)
		qi++
	})
	if allocs != 0 {
		t.Fatalf("steady-state page search allocates %.1f times per query, want 0", allocs)
	}
}

// TestPageSearchCachedSteadyStateZeroAlloc extends the pin to the cached
// page path (comparable cache keys, layout included).
func TestPageSearchCachedSteadyStateZeroAlloc(t *testing.T) {
	ds, ix := sharedPaged(t)
	opts := cachedOpts(index.NodeCacheStatic, 16).With(index.WithLayout(index.LayoutPage))
	opts.Scratch = index.NewSearchScratch()
	var dst index.Result
	for qi := 0; qi < ds.Queries.Len(); qi++ {
		ix.SearchInto(ds.Queries.Row(qi), 10, opts, &dst)
	}
	qi := 0
	allocs := testing.AllocsPerRun(20, func() {
		ix.SearchInto(ds.Queries.Row(qi%ds.Queries.Len()), 10, opts, &dst)
		qi++
	})
	if allocs != 0 {
		t.Fatalf("cached steady-state page search allocates %.1f times per query, want 0", allocs)
	}
}

// pagePersistBytes serialises ix and returns the framing bytes.
func pagePersistBytes(t testing.TB, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := binenc.NewWriter(&buf)
	ix.WriteTo(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPageLayoutSurvivesReload: no format stores the page layout, so a
// loaded index packs it again. Save → load must pack the layout the saved
// index packed and search it identically, and persist → reload → persist
// must reproduce the file byte for byte.
func TestPageLayoutSurvivesReload(t *testing.T) {
	ds := testData(t)
	orig := build(t, ds, Config{R: 32, LBuild: 64, PQM: 8})
	first := pagePersistBytes(t, orig)
	got, err := ReadFrom(binenc.NewReader(bytes.NewReader(first)), ds.Vectors, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig.pageLayoutFor(), got.pageLayoutFor()) {
		t.Fatal("reloaded index packs a different page layout")
	}
	if second := pagePersistBytes(t, got); !bytes.Equal(first, second) {
		t.Fatal("persist → reload → persist is not byte-identical")
	}
	var next int64
	orig.AssignPages(func(n int64) int64 { p := next; next += n; return p })
	next = 0
	got.AssignPages(func(n int64) int64 { p := next; next += n; return p })
	for qi := 0; qi < 10; qi++ {
		q := ds.Queries.Row(qi)
		if a, b := orig.Search(q, 10, pageOpts()), got.Search(q, 10, pageOpts()); !reflect.DeepEqual(a, b) {
			t.Fatalf("query %d: reloaded index searches its page layout differently", qi)
		}
	}
}
