package core

import (
	"context"
	"fmt"
	"io"

	"svdbench/internal/dataset"
	"svdbench/internal/index"
	"svdbench/internal/sim"
	"svdbench/internal/trace"
	"svdbench/internal/vdb"
	"svdbench/internal/vec"
)

// runExtA extends the paper per its Sec. VIII: vector search under a
// concurrent insert/delete stream. Writes occupy the SSD's shared bus (NAND
// read/write interference) and burn CPU, degrading search throughput and
// tail latency as the write rate grows.
func runExtA(ctx context.Context, b *Bench, w io.Writer) error {
	st, err := b.StackContext(ctx, "cohere-small", milvusDiskANN())
	if err != nil {
		return err
	}
	writerCounts := []int{0, 4, 16, 64, 128}
	cfg := b.mergeDefaults(RunConfig{})
	results, err := measure(ctx, b.sched(), writerCounts, func(writers int) string { return fmt.Sprintf("extA/writers=%d", writers) },
		func(_ context.Context, writers int) (Metrics, error) {
			return runHybrid(newRig(cfg.Cores, trace.NewTracer(false)), st, 16, writers, cfg)
		})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Milvus-DiskANN search under concurrent writes (16 query threads)")
	tw := table(w, "writer threads", "QPS", "P99 (µs)", "read MiB/s", "write MiB/s")
	for i, writers := range writerCounts {
		m := results[i]
		row(tw, writers,
			fmt.Sprintf("%.1f", m.QPS),
			fmtDur(m.P99),
			fmt.Sprintf("%.1f", m.ReadMiBps),
			fmt.Sprintf("%.1f", m.WriteMiBps))
	}
	return tw.Flush()
}

// runHybrid is the Ext-A workload on r, a fresh rig with a tracer:
// queryThreads closed-loop searchers plus writerThreads alternating
// insert/delete clients against the same engine and device, its Metrics
// assembled as runOnce's are. Failed writes are not counted.
func runHybrid(r *rig, st *Stack, queryThreads, writerThreads int, cfg RunConfig) (Metrics, error) {
	eng := vdb.NewEngine(r.k, r.cpu, r.dev, st.Setup.Engine)
	queries := cursor{execs: st.Execs}
	res := tally{deadline: sim.Time(cfg.Duration)}
	r.clients("query", queryThreads, res.deadline, nil, func(t *sim.Timer) clientOp {
		return &queryOp{k: r.k, t: t, q: eng.NewOp(t), queries: &queries, tally: &res}
	})
	vectorBytes := st.Dataset.Spec.Dim * 4
	r.clients("writer", writerThreads, res.deadline, nil, func(t *sim.Timer) clientOp {
		return &writeOp{q: eng.NewOp(t), bytes: vectorBytes}
	})
	end, err := r.run()
	if err != nil {
		return Metrics{}, err
	}
	return r.metrics(&res, end, cfg), nil
}

// writeOp is an Ext-A writer's operation: seven inserts of a vector, then a
// delete, over and over.
type writeOp struct {
	q     *vdb.Op
	bytes int
}

func (w *writeOp) start(iter int) bool {
	if iter%8 == 7 {
		return w.q.Delete()
	}
	return w.q.Insert(w.bytes)
}

func (w *writeOp) resume() bool  { return w.q.Resume() }
func (w *writeOp) phase() string { return w.q.Phase() }

// runExtB measures filtered search: recall against filtered ground truth,
// the distance computations the recorded searches took, and throughput.
// The HNSW search post-filters its ef candidate list (hnsw.SearchInto), so
// the traversal, and with it the work column, is the same under every
// filter; a selective filter costs recall instead.
func runExtB(ctx context.Context, b *Bench, w io.Writer) error {
	ds, err := b.DatasetContext(ctx, "cohere-small")
	if err != nil {
		return err
	}
	// Attach a payload with ~10% / ~50% selectivity classes.
	payloads := make([]vdb.Payload, ds.Vectors.Len())
	for i := range payloads {
		cls := "common" // ~50%
		if i%2 == 1 {
			cls = "other"
		}
		if i%10 == 0 {
			cls = "rare" // 10%
		}
		payloads[i] = vdb.Payload{"class": cls}
	}
	col, err := vdb.NewCollection("extB", ds.Spec.Dim, ds.Spec.Metric, vdb.Qdrant(), vdb.IndexHNSW, vdb.DefaultBuildParams())
	if err != nil {
		return err
	}
	if err := col.BulkLoad(ds.Vectors, payloads); err != nil {
		return err
	}
	cases := []struct {
		name   string
		filter func(int32) bool
		accept func(int32) bool
	}{
		{"unfiltered", nil, func(int32) bool { return true }},
		{"class=common (~45%)", col.FilterEq("class", "common"), func(id int32) bool { return id%2 == 0 && id%10 != 0 }},
		{"class=rare (10%)", col.FilterEq("class", "rare"), func(id int32) bool { return id%10 == 0 }},
	}
	tw := table(w, "filter", "recall@10", "mean dist comps", "QPS (16 threads)")
	for _, c := range cases {
		if err := ctx.Err(); err != nil {
			return err
		}
		gt := filteredGroundTruth(ds, c.accept)
		opts := index.SearchOptions{EfSearch: 128, Filter: c.filter}
		execs := col.RecordQueries(ds.Queries, PaperK, opts)
		recall := recallOfExecs(execs, gt)
		out, err := RunContext(ctx, execs, vdb.Qdrant(), b.mergeDefaults(RunConfig{Threads: 16}))
		if err != nil {
			return err
		}
		row(tw, c.name,
			fmt.Sprintf("%.3f", recall),
			totalStats(execs).DistComps/len(execs),
			fmt.Sprintf("%.1f", out.Metrics.QPS))
	}
	return tw.Flush()
}

// filteredGroundTruth recomputes exact neighbours over the accepted subset.
func filteredGroundTruth(ds *dataset.Dataset, accept func(int32) bool) [][]int32 {
	var rows []int
	for i := 0; i < ds.Vectors.Len(); i++ {
		if accept(int32(i)) {
			rows = append(rows, i)
		}
	}
	sub := vecSubset(ds, rows)
	gtLocal := dataset.BruteForce(sub, ds.Queries, ds.Spec.Metric, PaperK)
	out := make([][]int32, len(gtLocal))
	for qi, ids := range gtLocal {
		mapped := make([]int32, len(ids))
		for i, id := range ids {
			mapped[i] = int32(rows[id])
		}
		out[qi] = mapped
	}
	return out
}

func vecSubset(ds *dataset.Dataset, rows []int) *vec.Matrix {
	sub := vec.NewMatrix(len(rows), ds.Spec.Dim)
	for i, r := range rows {
		sub.SetRow(i, ds.Vectors.Row(r))
	}
	return sub
}

// runExtC reports the design ablations DESIGN.md calls out: beam search vs
// best-first (W=1), and Milvus's segmentation vs a monolithic build.
func runExtC(ctx context.Context, b *Bench, w io.Writer) error {
	// Ablation 1: beam width on cohere-small, 1 thread.
	st, err := b.StackContext(ctx, "cohere-small", milvusDiskANN())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Ablation 1 — beam search vs best-first (search_list=100, 1 thread)")
	tw := table(w, "beam width", "QPS", "P99 (µs)", "KiB/query")
	for _, W := range []int{1, 4} {
		out, err := b.run(ctx, st, index.NewSearchOptions(index.WithSearchList(100), index.WithBeamWidth(W)), RunConfig{Threads: 1})
		if err != nil {
			return err
		}
		row(tw, W, fmt.Sprintf("%.1f", out.Metrics.QPS), fmtDur(out.Metrics.P99),
			fmt.Sprintf("%.1f", out.Metrics.KiBPerQuery()))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w)

	// Ablation 2: segmented vs monolithic Milvus-DiskANN on the large
	// dataset — segmentation is the mechanism behind O-14's per-query
	// bandwidth growth.
	fmt.Fprintln(w, "# Ablation 2 — Milvus segmentation vs monolithic (cohere-large, DiskANN)")
	seg, err := b.StackContext(ctx, "cohere-large", milvusDiskANN())
	if err != nil {
		return err
	}
	monoStack, err := b.StackContext(ctx, "cohere-large", vdb.Setup{Engine: monoMilvus(), Index: vdb.IndexDiskANN})
	if err != nil {
		return err
	}
	tw = table(w, "layout", "segments", "QPS (t=16)", "P99 (µs)", "KiB/query", "recall@10")
	for _, s := range []*Stack{seg, monoStack} {
		out, err := b.run(ctx, s, s.Opts, RunConfig{Threads: 16})
		if err != nil {
			return err
		}
		row(tw, s.Setup.Engine.Name, len(s.Col.Segments()),
			fmt.Sprintf("%.1f", out.Metrics.QPS), fmtDur(out.Metrics.P99),
			fmt.Sprintf("%.1f", out.Metrics.KiBPerQuery()),
			fmt.Sprintf("%.3f", s.Recall))
	}
	return tw.Flush()
}
