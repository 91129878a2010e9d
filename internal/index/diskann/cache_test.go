package diskann

import (
	"reflect"
	"testing"

	"svdbench/internal/index"
)

// cachedOpts returns the shared test search options with a node cache.
func cachedOpts(policy string, nodes int) index.SearchOptions {
	return index.SearchOptions{SearchList: 20, BeamWidth: 4, NodeCacheNodes: nodes, NodeCachePolicy: policy}
}

func uncachedOpts() index.SearchOptions {
	return index.SearchOptions{SearchList: 20, BeamWidth: 4}
}

// TestCacheResultsIdentical is the recall-regression guard: enabling the
// node cache (either policy) must leave every result id and distance
// byte-identical — the cache absorbs reads, never alters the frontier.
func TestCacheResultsIdentical(t *testing.T) {
	ds, ix := shared(t)
	var next int64
	ix.AssignPages(func(n int64) int64 { p := next; next += n; return p })
	for _, policy := range []string{index.NodeCacheStatic, index.NodeCacheLRU} {
		for qi := 0; qi < ds.Queries.Len(); qi++ {
			base := ix.Search(ds.Queries.Row(qi), 10, uncachedOpts())
			got := ix.Search(ds.Queries.Row(qi), 10, cachedOpts(policy, 64))
			if !reflect.DeepEqual(base.IDs, got.IDs) || !reflect.DeepEqual(base.Dists, got.Dists) {
				t.Fatalf("policy=%s query=%d: cached results differ from uncached", policy, qi)
			}
		}
	}
}

// TestCachePageConservation checks the invariant PagesRead+CachePages ==
// uncached PagesRead, per query, in both the stats and the recorded profile.
func TestCachePageConservation(t *testing.T) {
	ds, ix := shared(t)
	var next int64
	ix.AssignPages(func(n int64) int64 { p := next; next += n; return p })
	for _, policy := range []string{index.NodeCacheStatic, index.NodeCacheLRU} {
		for qi := 0; qi < ds.Queries.Len(); qi++ {
			base := ix.Search(ds.Queries.Row(qi), 10, uncachedOpts())
			var prof index.Profile
			opts := cachedOpts(policy, 32)
			opts.Recorder = &prof
			got := ix.Search(ds.Queries.Row(qi), 10, opts)
			if got.Stats.PagesRead+got.Stats.CachePages != base.Stats.PagesRead {
				t.Fatalf("policy=%s query=%d: read %d + cached %d != uncached %d",
					policy, qi, got.Stats.PagesRead, got.Stats.CachePages, base.Stats.PagesRead)
			}
			if pages, cached := profilePages(&prof); pages != got.Stats.PagesRead || cached != got.Stats.CachePages {
				t.Fatalf("policy=%s query=%d: profile (%d,%d) != stats (%d,%d)", policy, qi,
					pages, cached, got.Stats.PagesRead, got.Stats.CachePages)
			}
		}
	}
}

// TestStaticCacheStrictlyReducesReads is the acceptance criterion: a static
// cache of at least beam-width nodes always absorbs the medoid (BFS warms it
// first, every search touches it first), so device reads strictly drop.
func TestStaticCacheStrictlyReducesReads(t *testing.T) {
	ds, ix := shared(t)
	var next int64
	ix.AssignPages(func(n int64) int64 { p := next; next += n; return p })
	opts := cachedOpts(index.NodeCacheStatic, uncachedOpts().BeamWidth)
	var baseReads, cachedReads, cachedPages int
	for qi := 0; qi < ds.Queries.Len(); qi++ {
		baseReads += ix.Search(ds.Queries.Row(qi), 10, uncachedOpts()).Stats.PagesRead
		res := ix.Search(ds.Queries.Row(qi), 10, opts)
		cachedReads += res.Stats.PagesRead
		cachedPages += res.Stats.CachePages
	}
	if cachedReads >= baseReads {
		t.Errorf("cached reads %d not strictly below uncached %d", cachedReads, baseReads)
	}
	if cachedPages == 0 {
		t.Error("static cache with capacity ≥ beam width absorbed no pages")
	}
}

// TestCacheWarmNodesBFS checks the warm set: the medoid leads, rows are
// unique and valid, and the set is capped at the requested size.
func TestCacheWarmNodesBFS(t *testing.T) {
	_, ix := shared(t)
	for _, n := range []int{1, 7, 100, ix.Len() + 50} {
		warm := ix.CacheWarmNodes(n)
		want := n
		if want > ix.Len() {
			want = ix.Len()
		}
		if len(warm) != want {
			t.Fatalf("n=%d: warm set has %d nodes, want %d", n, len(warm), want)
		}
		if warm[0] != ix.medoid {
			t.Fatalf("n=%d: warm set starts at %d, want medoid %d", n, warm[0], ix.medoid)
		}
		seen := map[int32]bool{}
		for _, r := range warm {
			if r < 0 || int(r) >= ix.Len() {
				t.Fatalf("n=%d: warm row %d out of range", n, r)
			}
			if seen[r] {
				t.Fatalf("n=%d: warm row %d duplicated", n, r)
			}
			seen[r] = true
		}
	}
}

// TestCacheSnapshotCounts checks the surfaced counters: touches equal
// hits+misses and a warmed static cache registers hits.
func TestCacheSnapshotCounts(t *testing.T) {
	ds := testData(t)
	ix := build(t, ds, Config{R: 32, LBuild: 64, PQM: 8})
	var next int64
	ix.AssignPages(func(n int64) int64 { p := next; next += n; return p })
	opts := cachedOpts(index.NodeCacheStatic, 64)
	if _, ok := ix.CacheSnapshot(opts); ok {
		t.Fatal("snapshot reported before any search created the cache")
	}
	for qi := 0; qi < 10; qi++ {
		ix.Search(ds.Queries.Row(qi), 10, opts)
	}
	snap, ok := ix.CacheSnapshot(opts)
	if !ok {
		t.Fatal("no snapshot after cached searches")
	}
	if snap.Hits == 0 {
		t.Error("warmed static cache saw no hits")
	}
	if snap.Hits+snap.Misses != snap.Touches() {
		t.Errorf("hits %d + misses %d != touches %d", snap.Hits, snap.Misses, snap.Touches())
	}
	if snap.BytesSaved == 0 {
		t.Error("hits saved no bytes")
	}
}

// TestCacheBadPolicyPanics: an unknown policy is a programming error, caught
// at the first cached search.
func TestCacheBadPolicyPanics(t *testing.T) {
	ds, ix := shared(t)
	defer func() {
		if recover() == nil {
			t.Error("search with unknown cache policy did not panic")
		}
	}()
	ix.Search(ds.Queries.Row(0), 10, cachedOpts("clock", 8))
}
