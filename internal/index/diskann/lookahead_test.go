package diskann

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"svdbench/internal/index"
)

// recordOne searches one query with a profile recorder attached.
func recordOne(ix *Index, q []float32, opts index.SearchOptions) (index.Result, index.Profile) {
	var prof index.Profile
	opts.Recorder = &prof
	res := ix.Search(q, 10, opts)
	return res, prof
}

// profilePages counts the pages a recorded profile read and the pages its
// node cache absorbed.
func profilePages(p *index.Profile) (pages, cached int) {
	for _, s := range p.Steps {
		pages += len(s.Pages)
		cached += int(s.CachePages)
	}
	return pages, cached
}

// TestLookAheadResultsAndDemandIdentical is the pipeline's core invariant
// at the index layer: look-ahead may only change when pages are read. The
// result ids/distances, the demand statistics, and every recorded step
// modulo its Prefetch field must be byte-identical to the synchronous
// search at any depth.
func TestLookAheadResultsAndDemandIdentical(t *testing.T) {
	ds, ix := shared(t)
	var next int64
	ix.AssignPages(func(n int64) int64 { p := next; next += n; return p })
	totalPrefetch := 0
	for _, la := range []int{1, 2, 8} {
		for qi := 0; qi < ds.Queries.Len(); qi++ {
			q := ds.Queries.Row(qi)
			base, baseProf := recordOne(ix, q, uncachedOpts())
			got, gotProf := recordOne(ix, q, uncachedOpts().With(index.WithLookAhead(la)))
			if !reflect.DeepEqual(base.IDs, got.IDs) || !reflect.DeepEqual(base.Dists, got.Dists) {
				t.Fatalf("la=%d query=%d: look-ahead changed the results", la, qi)
			}
			gs := got.Stats
			totalPrefetch += gs.PrefetchPages
			if gs.PrefetchUsed > gs.PrefetchPages {
				t.Fatalf("la=%d query=%d: prefetch used %d exceeds issued %d", la, qi, gs.PrefetchUsed, gs.PrefetchPages)
			}
			gs.PrefetchPages, gs.PrefetchUsed = 0, 0
			if gs != base.Stats {
				t.Fatalf("la=%d query=%d: demand stats differ: %+v vs %+v", la, qi, got.Stats, base.Stats)
			}
			if len(baseProf.Steps) != len(gotProf.Steps) {
				t.Fatalf("la=%d query=%d: step count %d vs %d", la, qi, len(baseProf.Steps), len(gotProf.Steps))
			}
			for i := range gotProf.Steps {
				s := gotProf.Steps[i]
				s.Prefetch = nil
				if !reflect.DeepEqual(baseProf.Steps[i], s) {
					t.Fatalf("la=%d query=%d step %d differs beyond Prefetch:\nbase: %+v\nla:   %+v",
						la, qi, i, baseProf.Steps[i], gotProf.Steps[i])
				}
			}
		}
	}
	if totalPrefetch == 0 {
		t.Error("no query at any depth issued a prefetch")
	}
}

// TestLookAheadSkipsCachedNodes: speculation must not prefetch pages the
// node cache already holds — Contains peeks without touching, so checking
// eligibility cannot perturb the cache state either.
func TestLookAheadSkipsCachedNodes(t *testing.T) {
	ds, ix := shared(t)
	var next int64
	ix.AssignPages(func(n int64) int64 { p := next; next += n; return p })
	// Cache every node: nothing is left to prefetch.
	opts := cachedOpts(index.NodeCacheStatic, ix.Len()).With(index.WithLookAhead(4))
	for qi := 0; qi < ds.Queries.Len(); qi++ {
		res := ix.Search(ds.Queries.Row(qi), 10, opts)
		if res.Stats.PrefetchPages != 0 {
			t.Fatalf("query %d prefetched %d pages with a fully cached index", qi, res.Stats.PrefetchPages)
		}
	}
}

// TestSearchBatchMatchesSearch: the shared batch driver must agree with a
// sequential Search loop at every GOMAXPROCS, the batch's width.
func TestSearchBatchMatchesSearch(t *testing.T) {
	ds, ix := shared(t)
	var next int64
	ix.AssignPages(func(n int64) int64 { p := next; next += n; return p })
	queries := make([][]float32, ds.Queries.Len())
	for qi := range queries {
		queries[qi] = ds.Queries.Row(qi)
	}
	opts := uncachedOpts().With(index.WithLookAhead(2))
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		batch := index.BatchRun(context.Background(), len(queries), opts,
			func(qi int, o index.SearchOptions) index.Result { return ix.Search(queries[qi], 10, o) })
		runtime.GOMAXPROCS(prev)
		for qi, q := range queries {
			if !reflect.DeepEqual(batch[qi], ix.Search(q, 10, opts)) {
				t.Fatalf("GOMAXPROCS=%d query=%d: batch result differs from Search", procs, qi)
			}
		}
	}
}
