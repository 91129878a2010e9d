package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"svdbench/internal/dataset"
	"svdbench/internal/index"
	"svdbench/internal/index/diskann"
	"svdbench/internal/index/spann"
	"svdbench/internal/vdb"
)

// runExtD compares the two storage-based index families head to head —
// DiskANN's graph (dependent 4 KiB random reads) against a SPANN-style
// cluster index (few contiguous multi-page posting reads) — extending the
// paper's Sec. II-B discussion and its ref [30]. Both indexes are built
// monolithically over the same dataset and replayed under identical neutral
// engine traits, so every difference is the index's own.
func runExtD(ctx context.Context, b *Bench, w io.Writer) error {
	// DiskANN at its tuned minimum search_list: the monolithic collection
	// the Ext-C ablation also uses (disk-cached across runs). It has no
	// tombstones, so its recorded executions are the bare index's. SPANN
	// with nprobe tuned to the same recall target.
	s, err := b.storageStacks(ctx)
	if err != nil {
		return err
	}
	monoStack, sp := s.da, s.sp
	da, ok := monoStack.Col.Segments()[0].Index.(*diskann.Index)
	if !ok {
		return fmt.Errorf("extD: %w: monolithic stack holds %T, want *diskann.Index", vdb.ErrBadParams, monoStack.Col.Segments()[0].Index)
	}
	daOpts := monoStack.Opts
	spExecs, spRecall := sp.record(sp.opts)

	rows := []struct {
		name    string
		execs   []vdb.QueryExec
		recall  float64
		details string
	}{
		{fmt.Sprintf("DiskANN (graph, W=%d, L=%d)", daOpts.BeamWidth, daOpts.SearchList), monoStack.Execs, monoStack.Recall,
			fmt.Sprintf("storage=%.1fMiB memory=%.1fMiB", mib(da.StorageBytes()), mib(da.MemoryBytes()))},
		{fmt.Sprintf("SPANN (clusters, nprobe=%d)", sp.opts.NProbe), spExecs, spRecall,
			fmt.Sprintf("storage=%.1fMiB memory=%.1fMiB amplification=%.2fx", mib(sp.ix.StorageBytes()), mib(sp.ix.MemoryBytes()), sp.ix.SpaceAmplification())},
	}
	tw := table(w, "index", "recall@10", "QPS (t=16)", "P99 (µs)", "KiB/query", "mean req size (KiB)", "footprint")
	for _, r := range rows {
		out, err := RunContext(ctx, r.execs, neutralEngine, b.mergeDefaults(RunConfig{Threads: 16}))
		if err != nil {
			return err
		}
		m := out.Metrics
		meanReq := m.MeanReadBytes / 1024
		row(tw, r.name,
			fmt.Sprintf("%.3f", r.recall),
			fmt.Sprintf("%.1f", m.QPS),
			fmtDur(m.P99),
			fmt.Sprintf("%.1f", m.KiBPerQuery()),
			fmt.Sprintf("%.1f", meanReq),
			r.details)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\n(SPANN issues few contiguous multi-page reads where DiskANN issues chains of 4 KiB")
	fmt.Fprintln(w, " random reads, and pays for it in storage amplification — the paper's Sec. II-B trade-off.)")
	return nil
}

// neutralEngine is the engine the raw-index extensions (D–F) replay under:
// no engine-specific overhead beyond a fixed per-query CPU cost, so every
// difference between rows is the index's own.
var neutralEngine = vdb.Traits{Name: "neutral", PerQueryCPU: 30 * time.Microsecond}

// spannStack is the SPANN index Extensions D, E and F measure: built raw
// over a dataset's vectors, laid out from page 0, with nprobe tuned to the
// recall target on the first 100 queries.
type spannStack struct {
	ds   *dataset.Dataset
	ix   *spann.Index
	opts index.SearchOptions
	recs memo[string, spannRecording]
}

type spannRecording struct {
	execs  []vdb.QueryExec
	recall float64
}

// record returns the executions of every dataset query at opts and their
// recall@10, memoised per option set like Stack.ExecsFor: an LRU node cache
// is warm after its first recording, so recording again would differ.
func (s *spannStack) record(opts index.SearchOptions) ([]vdb.QueryExec, float64) {
	r, _ := s.recs.get(variantKey(opts), func() (spannRecording, error) {
		execs, recall := recordRaw(s.ds, s.ix, opts, s.ds.Queries.Len())
		return spannRecording{execs, recall}, nil
	})
	return r.execs, r.recall
}

// spannContext returns (building and tuning on first use) the shared SPANN
// stack for a dataset. Concurrent calls share one build.
func (b *Bench) spannContext(ctx context.Context, dsName string) (*spannStack, error) {
	ds, err := b.DatasetContext(ctx, dsName)
	if err != nil {
		return nil, err
	}
	return b.spanns.get(dsName, func() (*spannStack, error) {
		sp, err := spann.Build(ds.Vectors, nil, spann.Config{Metric: ds.Spec.Metric, Seed: 1})
		if err != nil {
			return nil, err
		}
		var page int64
		sp.AssignPages(func(n int64) int64 { p := page; page += n; return p })
		nprobe := tuneUp(1, sp.Postings(), func(v int) float64 {
			_, r := recordRaw(ds, sp, index.SearchOptions{NProbe: v}, 100)
			return r
		})
		return &spannStack{ds: ds, ix: sp, opts: index.SearchOptions{NProbe: nprobe}}, nil
	})
}

// recordRaw records the execution of the first n dataset queries (all of
// them when n is larger) against a bare index through index.BatchRun,
// returning replayable executions and the achieved recall@10.
func recordRaw(ds *dataset.Dataset, ix index.Index, opts index.SearchOptions, n int) ([]vdb.QueryExec, float64) {
	n = min(n, ds.Queries.Len())
	execs := index.BatchRun(context.Background(), n, opts, func(qi int, o index.SearchOptions) vdb.QueryExec {
		var prof index.Profile
		o.Recorder = &prof
		res := ix.Search(ds.Queries.Row(qi), PaperK, o)
		return vdb.QueryExec{Segments: [][]index.Step{prof.Steps}, IDs: res.IDs, Stats: res.Stats}
	})
	return execs, recallOfExecs(execs, ds.GroundTruth[:n])
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }
