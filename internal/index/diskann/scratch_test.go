package diskann

import (
	"context"
	"reflect"
	"testing"

	"svdbench/internal/index"
)

// TestScratchReuseIdentity: one scratch reused across every query, with two
// dsts taken in turn, must reproduce the fresh-scratch search exactly — ids,
// distances, stats, and the full recorded execution — and leave the
// previous query's result as it was.
func TestScratchReuseIdentity(t *testing.T) {
	ds, ix := shared(t)
	opts := uncachedOpts().With(index.WithLookAhead(2))
	scr := index.NewSearchScratch()
	var dsts [2]index.Result
	var prev index.Result
	for qi := 0; qi < ds.Queries.Len(); qi++ {
		q := ds.Queries.Row(qi)
		dst := &dsts[qi%2]
		base, baseProf := recordOne(ix, q, opts)
		var prof index.Profile
		o := opts
		o.Recorder = &prof
		o.Scratch = scr
		ix.SearchInto(q, 10, o, dst)
		if !reflect.DeepEqual(base.IDs, dst.IDs) || !reflect.DeepEqual(base.Dists, dst.Dists) {
			t.Fatalf("query %d: reused scratch changed results", qi)
		}
		if base.Stats != dst.Stats {
			t.Fatalf("query %d: stats differ: %+v vs %+v", qi, base.Stats, dst.Stats)
		}
		if !reflect.DeepEqual(baseProf.Steps, prof.Steps) {
			t.Fatalf("query %d: recorded execution differs under scratch reuse", qi)
		}
		if last := dsts[(qi+1)%2]; qi > 0 && (!reflect.DeepEqual(prev.IDs, last.IDs) || !reflect.DeepEqual(prev.Dists, last.Dists)) {
			t.Fatalf("query %d changed query %d's result: SearchInto's result aliases the scratch", qi, qi-1)
		}
		prev = base
	}
}

// TestSearchBatchMatchesSequential: the batch driver threads one scratch per
// worker; results must match single-query searches exactly at any
// concurrency.
func TestSearchBatchMatchesSequential(t *testing.T) {
	ds, ix := shared(t)
	opts := uncachedOpts()
	queries := make([][]float32, ds.Queries.Len())
	want := make([]index.Result, len(queries))
	for qi := range queries {
		queries[qi] = ds.Queries.Row(qi)
		want[qi] = ix.Search(queries[qi], 10, opts)
	}
	for _, workers := range []int{1, 4} {
		got := index.BatchRun(context.Background(), len(queries), opts.With(index.WithQueryConcurrency(workers)),
			func(qi int, o index.SearchOptions) index.Result { return ix.Search(queries[qi], 10, o) })
		for qi := range queries {
			if !reflect.DeepEqual(want[qi].IDs, got[qi].IDs) ||
				!reflect.DeepEqual(want[qi].Dists, got[qi].Dists) ||
				want[qi].Stats != got[qi].Stats {
				t.Fatalf("workers=%d query %d: batch result differs", workers, qi)
			}
		}
	}
}

// TestSearchSteadyStateZeroAlloc pins the tentpole: with a reused scratch
// and dst, no recorder and no node cache, a steady-state DiskANN query
// performs zero heap allocations.
func TestSearchSteadyStateZeroAlloc(t *testing.T) {
	ds, ix := shared(t)
	opts := uncachedOpts()
	opts.Scratch = index.NewSearchScratch()
	var dst index.Result
	// Warm the scratch across the whole query set so no measured iteration
	// grows a buffer for the first time.
	for qi := 0; qi < ds.Queries.Len(); qi++ {
		ix.SearchInto(ds.Queries.Row(qi), 10, opts, &dst)
	}
	qi := 0
	allocs := testing.AllocsPerRun(20, func() {
		ix.SearchInto(ds.Queries.Row(qi%ds.Queries.Len()), 10, opts, &dst)
		qi++
	})
	if allocs != 0 {
		t.Fatalf("steady-state search allocates %.1f times per query, want 0", allocs)
	}
}

// TestSearchCachedSteadyStateZeroAlloc extends the zero-alloc pin to the
// node-cache path: the cache is keyed by a comparable struct, so a
// static-cache steady-state query allocates nothing either. (A formatted
// string key would allocate on every lookup, cache hit or not — this test
// is the regression guard for that.)
func TestSearchCachedSteadyStateZeroAlloc(t *testing.T) {
	ds, ix := shared(t)
	var next int64
	ix.AssignPages(func(n int64) int64 { p := next; next += n; return p })
	opts := cachedOpts(index.NodeCacheStatic, 64)
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
		t.Fatalf("cached steady-state search allocates %.1f times per query, want 0", allocs)
	}
}
