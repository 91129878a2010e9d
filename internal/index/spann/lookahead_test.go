package spann

import (
	"context"
	"reflect"
	"testing"

	"svdbench/internal/index"
)

func recordOne(ix *Index, q []float32, opts index.SearchOptions) (index.Result, index.Profile) {
	var prof index.Profile
	opts.Recorder = &prof
	res := ix.Search(q, 10, opts)
	return res, prof
}

// TestLookAheadResultsAndDemandIdentical: look-ahead over the posting probe
// sequence may only change when pages are read — results, demand stats and
// recorded steps modulo Prefetch are byte-identical at every depth.
func TestLookAheadResultsAndDemandIdentical(t *testing.T) {
	ds := testData(t)
	ix := build(t, ds, Config{PostingSize: 64})
	base := index.SearchOptions{NProbe: 8}
	totalPrefetch := 0
	for _, la := range []int{1, 2, 8} {
		for qi := 0; qi < ds.Queries.Len(); qi++ {
			q := ds.Queries.Row(qi)
			want, wantProf := recordOne(ix, q, base)
			got, gotProf := recordOne(ix, q, base.With(index.WithLookAhead(la)))
			if !reflect.DeepEqual(want.IDs, got.IDs) || !reflect.DeepEqual(want.Dists, got.Dists) {
				t.Fatalf("la=%d query=%d: look-ahead changed the results", la, qi)
			}
			gs := got.Stats
			totalPrefetch += gs.PrefetchPages
			if gs.PrefetchUsed > gs.PrefetchPages {
				t.Fatalf("la=%d query=%d: prefetch used %d exceeds issued %d", la, qi, gs.PrefetchUsed, gs.PrefetchPages)
			}
			gs.PrefetchPages, gs.PrefetchUsed = 0, 0
			if gs != want.Stats {
				t.Fatalf("la=%d query=%d: demand stats differ: %+v vs %+v", la, qi, got.Stats, want.Stats)
			}
			if len(wantProf.Steps) != len(gotProf.Steps) {
				t.Fatalf("la=%d query=%d: step count %d vs %d", la, qi, len(wantProf.Steps), len(gotProf.Steps))
			}
			for i := range gotProf.Steps {
				s := gotProf.Steps[i]
				s.Prefetch = nil
				if !reflect.DeepEqual(wantProf.Steps[i], s) {
					t.Fatalf("la=%d query=%d step %d differs beyond Prefetch", la, qi, i)
				}
			}
		}
	}
	if totalPrefetch == 0 {
		t.Error("no query at any depth issued a prefetch")
	}
}

// TestLookAheadFullyUsedWithoutCache: SPANN's probe order is fixed after
// centroid navigation, so without a cache every prefetched posting is later
// demanded — the wasted-prefetch ratio is exactly zero.
func TestLookAheadFullyUsedWithoutCache(t *testing.T) {
	ds := testData(t)
	ix := build(t, ds, Config{PostingSize: 64})
	opts := index.SearchOptions{NProbe: 8}.With(index.WithLookAhead(4))
	for qi := 0; qi < ds.Queries.Len(); qi++ {
		s := ix.Search(ds.Queries.Row(qi), 10, opts).Stats
		if s.PrefetchPages == 0 {
			t.Fatalf("query %d issued no prefetch at nprobe=8, la=4", qi)
		}
		if s.PrefetchUsed != s.PrefetchPages {
			t.Fatalf("query %d wasted prefetch (%d used of %d) despite a fixed probe order",
				qi, s.PrefetchUsed, s.PrefetchPages)
		}
	}
}

// TestLookAheadPrefetchRunsContiguous: recorded speculative runs carry the
// posting's contiguous layout so replay issues one large read per posting.
func TestLookAheadPrefetchRunsContiguous(t *testing.T) {
	ds := testData(t)
	ix := build(t, ds, Config{PostingSize: 64})
	opts := index.SearchOptions{NProbe: 8}.With(index.WithLookAhead(2))
	runs := 0
	for qi := 0; qi < ds.Queries.Len(); qi++ {
		_, prof := recordOne(ix, ds.Queries.Row(qi), opts)
		for _, st := range prof.Steps {
			for _, pf := range st.Prefetch {
				runs++
				if !pf.Contiguous {
					t.Fatalf("query %d recorded a non-contiguous posting prefetch", qi)
				}
				if len(pf.Pages) == 0 {
					t.Fatalf("query %d recorded an empty prefetch run", qi)
				}
			}
		}
	}
	if runs == 0 {
		t.Error("no prefetch runs recorded")
	}
}

// TestSearchBatchMatchesSearch: the shared batch driver must agree with a
// sequential Search loop at every concurrency.
func TestSearchBatchMatchesSearch(t *testing.T) {
	ds := testData(t)
	ix := build(t, ds, Config{PostingSize: 64})
	queries := make([][]float32, ds.Queries.Len())
	for qi := range queries {
		queries[qi] = ds.Queries.Row(qi)
	}
	for _, qc := range []int{1, 4} {
		opts := index.SearchOptions{NProbe: 8}.With(
			index.WithQueryConcurrency(qc), index.WithLookAhead(2))
		batch := index.BatchRun(context.Background(), len(queries), opts,
			func(qi int, o index.SearchOptions) index.Result { return ix.Search(queries[qi], 10, o) })
		for qi, q := range queries {
			if !reflect.DeepEqual(batch[qi], ix.Search(q, 10, opts)) {
				t.Fatalf("qc=%d query=%d: batch result differs from Search", qc, qi)
			}
		}
	}
}
