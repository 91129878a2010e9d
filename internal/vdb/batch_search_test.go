package vdb

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"svdbench/internal/dataset"
	"svdbench/internal/index"
)

// TestSearchBatchMatchesSequentialProperty is the pipeline's determinism
// property: SearchBatch must be byte-identical to a sequential Search loop,
// and RecordQueries to a sequential Record loop, under every combination of
// look-ahead depth, query concurrency, and node-cache configuration, on a
// monolithic collection and on a segmented one with a growing tail (an LRU
// cache per segment index). Look-ahead and concurrency may only change when
// pages are read, never what the search returns or demands.
//
// Every ordering being compared runs on its own independently built but
// identical collection, so mutable (LRU) cache state cannot leak between
// them.
func TestSearchBatchMatchesSequentialProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	caches := []index.SearchOption{
		func(o *index.SearchOptions) {}, // no cache
		index.WithNodeCachePolicy(index.NodeCacheStatic),
		index.WithNodeCachePolicy(index.NodeCacheLRU),
	}
	inputs := []struct {
		name  string
		build func(testing.TB) (*Collection, *dataset.Dataset)
	}{
		{"monolithic", lruCollection},
		{"segmented", segmentedCollection},
	}
	prefetchTrials, prefetchSeen := 0, 0
	for trial := 0; trial < 6; trial++ {
		opts := index.SearchOptions{SearchList: 20, BeamWidth: 4}
		opts = opts.With(
			index.WithLookAhead(rng.Intn(5)),
			index.WithQueryConcurrency(1+rng.Intn(8)),
			caches[rng.Intn(len(caches))],
		)
		if opts.NodeCachePolicy != "" {
			opts = opts.With(index.WithNodeCacheNodes(16))
		}
		for _, in := range inputs {
			twin := func() *Collection {
				col, _ := in.build(t)
				return col
			}
			colBatch, ds := in.build(t)
			colSeq := twin()
			batch := colBatch.SearchBatch(context.Background(), ds.Queries, 10, opts)
			recorded := twin().RecordQueries(ds.Queries, 10, opts)
			colRec := twin()
			if len(batch) != ds.Queries.Len() || len(recorded) != ds.Queries.Len() {
				t.Fatalf("trial %d %s: batch returned %d and %d execs for %d queries",
					trial, in.name, len(batch), len(recorded), ds.Queries.Len())
			}
			for qi := range batch {
				q := ds.Queries.Row(qi)
				for _, c := range []struct {
					kind      string
					got, want QueryExec
				}{
					{"SearchBatch vs Search", batch[qi], colSeq.Search(q, 10, opts)},
					{"RecordQueries vs Record", recorded[qi], colRec.Record(q, 10, opts)},
				} {
					if !reflect.DeepEqual(c.got, c.want) {
						t.Fatalf("trial %d %s (la=%d qc=%d cache=%q): query %d: %s differs\nbatch: %+v\nseq:   %+v",
							trial, in.name, opts.LookAhead, opts.QueryConcurrency, opts.NodeCachePolicy, qi, c.kind, c.got, c.want)
					}
				}
			}
			if opts.LookAhead > 0 {
				prefetchTrials++
				for qi := range batch {
					if batch[qi].Stats.PrefetchPages > 0 {
						prefetchSeen++
						break
					}
				}
			}
		}
	}
	if prefetchTrials > 0 && prefetchSeen == 0 {
		t.Error("no look-ahead trial recorded any prefetch pages")
	}
}

// TestRecordQueriesLookAheadPreservesResults: recording with look-ahead must
// yield the same results, demand steps and demand statistics as recording
// without — the speculation lives only in the Prefetch field of each step
// and the prefetch counters of the stats.
func TestRecordQueriesLookAheadPreservesResults(t *testing.T) {
	opts := index.SearchOptions{SearchList: 20, BeamWidth: 4}
	colBase, ds := lruCollection(t)
	colLA, _ := lruCollection(t)
	base := colBase.RecordQueries(ds.Queries, 10, opts)
	la := colLA.RecordQueries(ds.Queries, 10, opts.With(index.WithLookAhead(4)))

	prefetched := 0
	for qi := range base {
		if !reflect.DeepEqual(base[qi].IDs, la[qi].IDs) {
			t.Fatalf("query %d: look-ahead changed result IDs", qi)
		}
		bs, ls := base[qi].Stats, la[qi].Stats
		prefetched += ls.PrefetchPages
		if ls.PrefetchUsed > ls.PrefetchPages {
			t.Fatalf("query %d: prefetch used %d exceeds issued %d", qi, ls.PrefetchUsed, ls.PrefetchPages)
		}
		ls.PrefetchPages, ls.PrefetchUsed = 0, 0
		if bs != ls {
			t.Fatalf("query %d: demand stats differ: base %+v vs look-ahead %+v", qi, bs, ls)
		}
		if len(base[qi].Segments) != len(la[qi].Segments) {
			t.Fatalf("query %d: segment count differs", qi)
		}
		for si := range base[qi].Segments {
			bSteps, lSteps := base[qi].Segments[si], la[qi].Segments[si]
			if len(bSteps) != len(lSteps) {
				t.Fatalf("query %d seg %d: step count %d vs %d", qi, si, len(bSteps), len(lSteps))
			}
			for i := range lSteps {
				s := lSteps[i]
				s.Prefetch = nil
				if !reflect.DeepEqual(bSteps[i], s) {
					t.Fatalf("query %d seg %d step %d differs beyond Prefetch:\nbase: %+v\nla:   %+v",
						qi, si, i, bSteps[i], lSteps[i])
				}
			}
		}
	}
	if prefetched == 0 {
		t.Error("look-ahead recording issued no prefetch pages across the workload")
	}
}
