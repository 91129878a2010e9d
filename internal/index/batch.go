// Batch search execution. BatchRun is the one batch driver: the collection
// layer's SearchBatch and RecordQueries, core's raw-index recordings and the
// index tests all run a query set through it. Batches are query-major — each
// query runs to completion on one worker — and results are byte-identical to
// running the queries one by one in order: batching changes scheduling,
// never answers.
package index

import (
	"context"
	"sync"
	"sync/atomic"
)

// DefaultQueryConcurrency is the batch fan-out used when
// SearchOptions.QueryConcurrency is zero.
const DefaultQueryConcurrency = 8

// BatchRun calls run(qi, opts) once for each query qi in [0, n) and returns
// the results in query order. Up to SearchOptions.QueryConcurrency queries
// (DefaultQueryConcurrency when zero, never more than n) run concurrently on
// host goroutines. When the options select a mutable node cache (LRU), the
// queries run on the calling goroutine strictly in query order, so whatever
// they record does not depend on goroutine interleaving. A cancelled ctx
// stops starting queries; unstarted queries keep T's zero value.
//
// Each worker owns one SearchScratch, passed to run as opts.Scratch, so the
// heaps and visited sets of the search hot path are allocated once per
// worker instead of once per query. The first worker uses the caller's
// scratch when opts brings one. Scratch identity never influences results
// (only where intermediate state lives), so the nondeterministic
// query→worker pairing is harmless.
func BatchRun[T any](ctx context.Context, n int, opts SearchOptions, run func(qi int, opts SearchOptions) T) []T {
	out := make([]T, n)
	workers := opts.QueryConcurrency
	if workers <= 0 {
		workers = DefaultQueryConcurrency
	}
	if opts.NodeCacheMutable() {
		workers = 1
	}
	workers = min(workers, n)
	var next atomic.Int64
	work := func(o SearchOptions) {
		for qi := int(next.Add(1)) - 1; qi < n && ctx.Err() == nil; qi = int(next.Add(1)) - 1 {
			out[qi] = run(qi, o)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		o := opts
		if w > 0 || o.Scratch == nil {
			o.Scratch = NewSearchScratch()
		}
		if workers == 1 {
			work(o) // on the calling goroutine, in query order
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(o)
		}()
	}
	wg.Wait()
	return out
}
