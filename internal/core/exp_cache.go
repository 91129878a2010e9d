package core

import (
	"context"
	"fmt"
	"io"

	"svdbench/internal/index"
	"svdbench/internal/vdb"
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

// cachePoint is one cell of the node-cache sweep; the zero policy ("off")
// is the uncached baseline.
type cachePoint struct {
	policy string
	nodes  int
}

// cachePoints returns the sweep grid: the baseline first, then every policy
// at every capacity, in deterministic order.
func cachePoints(n int) []cachePoint {
	pts := []cachePoint{{policy: "off"}}
	for _, pol := range []string{index.NodeCacheStatic, index.NodeCacheLRU} {
		for _, s := range cacheSizes(n) {
			pts = append(pts, cachePoint{policy: pol, nodes: s})
		}
	}
	return pts
}

// cacheOpts applies a sweep point to base search options.
func cacheOpts(base index.SearchOptions, p cachePoint) index.SearchOptions {
	if p.nodes <= 0 {
		return base
	}
	return base.With(index.WithNodeCacheNodes(p.nodes), index.WithNodeCachePolicy(p.policy))
}

// runCache sweeps the index-aware node cache across capacity and policy for
// both storage-based index families (Extension E). Because the cache is
// resolved at record time and only absorbs reads — it never alters the
// search frontier — recall is identical down the column while device read
// traffic falls with hit rate; the interesting outputs are the hit rate,
// the per-query read count, and what the saved I/O buys in latency.
func runCache(ctx context.Context, b *Bench, w io.Writer) error {
	// DiskANN over the monolithic Milvus stack (shared with Ext-C/D), at
	// its tuned search_list so every row sits at the same recall target.
	st, err := b.StackContext(ctx, "cohere-large", vdb.Setup{Engine: monoMilvus(), Index: vdb.IndexDiskANN})
	if err != nil {
		return err
	}

	// SPANN built raw over the same vectors, nprobe tuned to the recall
	// target (the Ext-D index, shared with it).
	sp, err := b.spannContext(ctx, "cohere-large")
	if err != nil {
		return err
	}

	pts := cachePoints(sp.ds.Vectors.Len())
	type cellOut struct {
		recall float64
		m      Metrics
	}
	daOuts := make([]cellOut, len(pts))
	spOuts := make([]cellOut, len(pts))
	cells := make([]cell, 0, 2*len(pts))
	for i, p := range pts {
		i, p := i, p
		cells = append(cells, cell{
			key: fmt.Sprintf("cohere-large/cache/diskann-%s-%d", p.policy, p.nodes),
			run: func(ctx context.Context) error {
				opts := cacheOpts(st.Opts, p)
				execs := st.ExecsFor(opts)
				out, err := b.RunCellContext(ctx, st, execs, RunConfig{Threads: 4},
					fmt.Sprintf("cache-%s-%d", p.policy, p.nodes))
				daOuts[i] = cellOut{recall: st.RecallFor(opts), m: out.Metrics}
				return err
			},
		})
		cells = append(cells, cell{
			key: fmt.Sprintf("cohere-large/cache/spann-%s-%d", p.policy, p.nodes),
			run: func(ctx context.Context) error {
				execs, recall := sp.record(cacheOpts(sp.opts, p))
				out, err := RunContext(ctx, execs, neutralEngine, b.mergeDefaults(RunConfig{Threads: 4}))
				spOuts[i] = cellOut{recall: recall, m: out.Metrics}
				return err
			},
		})
	}
	if err := b.runGrid(ctx, cells); err != nil {
		return err
	}

	tw := table(w, "index", "policy", "cache nodes", "recall@10", "hit rate", "reads/query", "QPS (t=4)", "mean (µs)", "P99 (µs)")
	emit := func(name string, outs []cellOut) {
		for i, p := range pts {
			o := outs[i]
			readsPerQ := 0.0
			if o.m.Served > 0 {
				readsPerQ = float64(o.m.ReadOps) / float64(o.m.Served)
			}
			row(tw, name, p.policy,
				fmt.Sprintf("%d", p.nodes),
				fmt.Sprintf("%.3f", o.recall),
				fmt.Sprintf("%.1f%%", 100*o.m.CacheHitRate),
				fmt.Sprintf("%.1f", readsPerQ),
				fmt.Sprintf("%.1f", o.m.QPS),
				fmtDur(o.m.MeanLatency),
				fmtDur(o.m.P99))
		}
	}
	emit(fmt.Sprintf("DiskANN (W=%d, L=%d)", st.Opts.BeamWidth, st.Opts.SearchList), daOuts)
	emit(fmt.Sprintf("SPANN (nprobe=%d)", sp.opts.NProbe), spOuts)
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\n(The cache is consulted before every beam or posting read and never changes results:")
	fmt.Fprintln(w, " recall is constant down each column while device reads/query falls with hit rate.)")
	return nil
}
