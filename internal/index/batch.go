// Batch-first search execution core. SearchBatchOf is the primary entry
// point of the search API: the collection layer, RecordQueries and the
// experiment scheduler all route through it, and the single-query Search
// remains as the one-element special case. Results are byte-identical to
// calling Search per query in order — batching changes scheduling, never
// answers.
package index

import (
	"context"
	"sync"
)

// DefaultQueryConcurrency is the batch fan-out used when
// SearchOptions.QueryConcurrency is zero.
const DefaultQueryConcurrency = 8

// SearchBatchOf runs a batch against any index: BatchRun over its Search. It
// returns one Result per query, in query order, each byte-identical to
// Search(queries[i], k, opts) issued sequentially, running up to
// SearchOptions.QueryConcurrency queries concurrently (host goroutines;
// recording against a mutable node cache forces sequential order). Per-query
// execution profiles are captured through SearchOptions.RecorderFor. A
// cancelled ctx stops scheduling new queries; unstarted queries return zero
// Results.
func SearchBatchOf(ctx context.Context, ix Index, queries [][]float32, k int, opts SearchOptions) []Result {
	return BatchRun(ctx, len(queries), opts, func(qi int, o SearchOptions) Result {
		return ix.Search(queries[qi], k, o)
	})
}

// BatchRun is the shared batch driver: it invokes search(qi, opts) once per
// query with the per-query recorder resolved, bounded by the options' query
// concurrency. When the options select a mutable node cache (LRU), queries
// run strictly sequentially in query order so the recorded executions do not
// depend on host goroutine interleaving — the same discipline
// vdb.Collection.RecordQueries always applied.
//
// Each concurrent worker slot owns one SearchScratch, handed to queries
// through a free-list channel, so the heaps and visited sets of the search
// hot path are allocated workers times per batch instead of once per query.
// Scratch identity never influences results (only where intermediate state
// lives), so the nondeterministic query→scratch pairing is harmless.
func BatchRun(ctx context.Context, n int, opts SearchOptions, search func(qi int, opts SearchOptions) Result) []Result {
	out := make([]Result, n)
	if n == 0 {
		return out
	}
	qOpts := func(qi int) SearchOptions {
		o := opts
		o.RecorderFor = nil
		if opts.RecorderFor != nil {
			o.Recorder = opts.RecorderFor(qi)
		}
		return o
	}
	workers := opts.QueryConcurrency
	if workers <= 0 {
		workers = DefaultQueryConcurrency
	}
	if opts.NodeCacheMutable() {
		workers = 1
	}
	if workers == 1 {
		scr := opts.Scratch
		if scr == nil {
			scr = NewSearchScratch()
		}
		for qi := 0; qi < n; qi++ {
			if ctx.Err() != nil {
				return out
			}
			o := qOpts(qi)
			o.Scratch = scr
			out[qi] = search(qi, o)
		}
		return out
	}
	free := make(chan *SearchScratch, workers)
	for i := 0; i < workers; i++ {
		if i == 0 && opts.Scratch != nil {
			free <- opts.Scratch
			continue
		}
		free <- NewSearchScratch()
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for qi := 0; qi < n; qi++ {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(qi int) {
			defer wg.Done()
			defer func() { <-sem }()
			o := qOpts(qi)
			o.Scratch = <-free
			out[qi] = search(qi, o)
			free <- o.Scratch
		}(qi)
	}
	wg.Wait()
	return out
}
