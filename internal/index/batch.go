// Batch search execution. BatchRun is the one batch driver: the collection
// layer's SearchBatch and RecordQueries, core's raw-index recordings and the
// index tests all run a query set through it. Batches are query-major — each
// query runs to completion on one worker — and results are byte-identical to
// running the queries one by one in order: batching changes scheduling,
// never answers.
package index

import (
	"context"
	"runtime"

	"svdbench/internal/par"
)

// BatchRun calls run(qi, opts) once for each query qi in [0, n) and returns
// the results in query order. Up to GOMAXPROCS queries (never more than n)
// run concurrently through par.For. When the options select a mutable node
// cache (LRU), the queries run on the calling goroutine strictly in query
// order, so whatever they record does not depend on goroutine interleaving.
// A cancelled ctx stops starting queries; unstarted queries keep T's zero
// value.
//
// Each worker owns one SearchScratch, passed to run as opts.Scratch, so the
// heaps and visited sets of the search hot path are allocated once per
// worker instead of once per query. The first worker uses the caller's
// scratch when opts brings one. Scratch identity never influences results
// (only where intermediate state lives), so the nondeterministic
// query→worker pairing is harmless.
func BatchRun[T any](ctx context.Context, n int, opts SearchOptions, run func(qi int, opts SearchOptions) T) []T {
	out := make([]T, n)
	width := runtime.GOMAXPROCS(0)
	if opts.NodeCacheMutable() {
		width = 1
	}
	scratch := make([]*SearchScratch, max(1, min(width, n)))
	scratch[0] = opts.Scratch
	par.For(width, n, func(w, qi int) {
		if ctx.Err() != nil {
			return
		}
		if scratch[w] == nil {
			scratch[w] = NewSearchScratch()
		}
		o := opts
		o.Scratch = scratch[w]
		out[qi] = run(qi, o)
	})
	return out
}
