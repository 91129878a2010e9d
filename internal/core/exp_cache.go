package core

import (
	"context"
	"fmt"
	"io"

	"svdbench/internal/index"
)

// cacheSizes derives the node-cache capacity ladder from the dataset size:
// roughly 1.5 %, 6 % and 25 % of the indexed vectors, deduplicated so tiny
// datasets do not sweep the same capacity twice.
func cacheSizes(n int) []int {
	var out []int
	for _, div := range []int{64, 16, 4} {
		s := n / div
		if s < 1 {
			s = 1
		}
		if len(out) == 0 || out[len(out)-1] != s {
			out = append(out, s)
		}
	}
	return out
}

// runCache sweeps the index-aware node cache across capacity and policy for
// both storage-based index families (Extension E). Because the cache is
// resolved at record time and only absorbs reads — it never alters the
// search frontier — recall is identical down the column while device read
// traffic falls with hit rate; the interesting outputs are the hit rate,
// the per-query read count, and what the saved I/O buys in latency.
func runCache(ctx context.Context, b *Bench, w io.Writer) error {
	s, err := b.storageStacks(ctx)
	if err != nil {
		return err
	}
	// Each family at its tuned parameters, so every row sits at the same
	// recall target: the uncached baseline first, then every policy at
	// every capacity.
	cfg := RunConfig{Threads: 4}
	var rows []storageRow
	for _, base := range []storageRow{{opts: s.da.Opts, cfg: cfg}, {spann: true, opts: s.sp.opts, cfg: cfg}} {
		rows = append(rows, base)
		for _, pol := range []string{index.NodeCacheStatic, index.NodeCacheLRU} {
			for _, n := range cacheSizes(s.sp.ds.Vectors.Len()) {
				rows = append(rows, storageRow{base.spann, base.opts.With(index.WithNodeCacheNodes(n), index.WithNodeCachePolicy(pol)), cfg})
			}
		}
	}
	outs, err := s.measure(ctx, rows)
	if err != nil {
		return err
	}

	tw := table(w, "index", "policy", "cache nodes", "recall@10", "hit rate", "reads/query", "QPS (t=4)", "mean (µs)", "P99 (µs)")
	for i, r := range rows {
		o, policy := outs[i], r.opts.NodeCachePolicy
		if r.opts.NodeCacheNodes == 0 {
			policy = "off"
		}
		row(tw, r.name(), policy,
			fmt.Sprintf("%d", r.opts.NodeCacheNodes),
			fmt.Sprintf("%.3f", o.recall),
			fmt.Sprintf("%.1f%%", 100*o.m.CacheHitRate),
			fmt.Sprintf("%.1f", o.readsPerQuery()),
			fmt.Sprintf("%.1f", o.m.QPS),
			fmtDur(o.m.MeanLatency),
			fmtDur(o.m.P99))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\n(The cache is consulted before every beam or posting read and never changes results:")
	fmt.Fprintln(w, " recall is constant down each column while device reads/query falls with hit rate.)")
	return nil
}
