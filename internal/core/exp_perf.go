package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"svdbench/internal/index"
	"svdbench/internal/sim"
	"svdbench/internal/storage/ssd"
	"svdbench/internal/vdb"
)

// runTable1 reproduces the paper's Sec. III-A fio calibration of the raw
// device: peak 4 KiB random-read IOPS from one core, 4 KiB IOPS with 64
// concurrent requests on four cores, and 128 KiB sequential bandwidth with
// 32 threads. The paper's measured values were 324.3 KIOPS, 1.3 MIOPS and
// 7.2 GiB/s on the Samsung 990 Pro.
func runTable1(ctx context.Context, b *Bench, w io.Writer) error {
	results, err := measure(ctx, b.sched(), ssd.TableI, func(c ssd.Calibration) string { return "table1/" + c.Name },
		func(_ context.Context, c ssd.Calibration) (fio, error) { return fioLike(c, 500*time.Millisecond) })
	if err != nil {
		return err
	}
	tw := table(w, "workload", "paper", "measured IOPS", "measured MiB/s")
	for i, c := range ssd.TableI {
		row(tw, c.Name, c.Paper, fmt.Sprintf("%.0f", results[i].iops), fmt.Sprintf("%.0f", results[i].mibps))
	}
	return tw.Flush()
}

// fio is one calibration job set's measured rates.
type fio struct{ iops, mibps float64 }

// fioLike runs one calibration job set on a fresh simulated stack. Requests
// that complete after the deadline are counted.
func fioLike(c ssd.Calibration, dur sim.Duration) (fio, error) {
	r := newRig(c.Cores, nil)
	var ops int64
	check := r.dev.Jobs(c.Jobs, c.Bytes, false, sim.Time(dur), func(sim.Duration) { ops++ })
	if _, err := r.run(); err != nil {
		return fio{}, err
	}
	if err := check(); err != nil {
		return fio{}, err
	}
	secs := dur.Seconds()
	return fio{float64(ops) / secs, float64(ops) * float64(c.Bytes) / (1 << 20) / secs}, nil
}

// figPoint is one run cell of a figure: the stack for (ds, setup), its
// recording at opts (nil: the tuned options), replayed under cfg.
type figPoint struct {
	ds    string
	setup vdb.Setup
	opts  *index.SearchOptions
	cfg   RunConfig
}

func (p figPoint) key() string {
	k := p.ds + "/" + p.setup.Label()
	if p.opts != nil {
		k += "/" + describeOpts(p.setup.Index, *p.opts)
	}
	return fmt.Sprintf("%s/t=%d", k, p.cfg.Threads)
}

// figure measures pts as one grid of memoised run cells, so stack builds
// and simulations overlap across host workers, and returns the outputs in
// point order.
func (b *Bench) figure(ctx context.Context, pts []figPoint) ([]RunOutput, error) {
	return measure(ctx, b.sched(), pts, figPoint.key, func(ctx context.Context, p figPoint) (RunOutput, error) {
		st, err := b.StackContext(ctx, p.ds, p.setup)
		if err != nil {
			return RunOutput{}, err
		}
		opts := st.Opts
		if p.opts != nil {
			opts = *p.opts
		}
		return b.run(ctx, st, opts, p.cfg)
	})
}

// prefetchStacks builds the given (dataset, setup) stacks as one grid so
// independent index builds run on parallel host workers; results land in
// the bench cache for the sequential rendering pass that follows.
func (b *Bench) prefetchStacks(ctx context.Context, dsNames []string, setups []vdb.Setup) error {
	var pts []figPoint
	for _, dsName := range dsNames {
		for _, setup := range setups {
			pts = append(pts, figPoint{ds: dsName, setup: setup})
		}
	}
	_, err := measure(ctx, b.sched(), pts, func(p figPoint) string { return "stack/" + p.ds + "/" + p.setup.Label() },
		func(ctx context.Context, p figPoint) (*Stack, error) { return b.StackContext(ctx, p.ds, p.setup) })
	return err
}

// runTable2 reproduces Table II: per dataset, the tuned search-time
// parameter and achieved recall@10 of every index.
func runTable2(ctx context.Context, b *Bench, w io.Writer) error {
	setups := []vdb.Setup{
		{Engine: vdb.Milvus(), Index: vdb.IndexIVFFlat},
		{Engine: vdb.Milvus(), Index: vdb.IndexHNSW},
		{Engine: vdb.LanceDB(), Index: vdb.IndexHNSWSQ},
		milvusDiskANN(),
		{Engine: vdb.LanceDB(), Index: vdb.IndexIVFPQ},
	}
	if err := b.prefetchStacks(ctx, paperDatasets(), setups); err != nil {
		return err
	}
	tw := table(w, "dataset", "ivf nlist", "ivf nprobe", "ivf acc", "hnsw efSearch", "hnsw acc",
		"efSearch (lancedb)", "lancedb acc", "diskann search_list", "diskann acc")
	for _, dsName := range paperDatasets() {
		ivfStack, err := b.StackContext(ctx, dsName, vdb.Setup{Engine: vdb.Milvus(), Index: vdb.IndexIVFFlat})
		if err != nil {
			return err
		}
		hnswStack, err := b.StackContext(ctx, dsName, vdb.Setup{Engine: vdb.Milvus(), Index: vdb.IndexHNSW})
		if err != nil {
			return err
		}
		lanceStack, err := b.StackContext(ctx, dsName, vdb.Setup{Engine: vdb.LanceDB(), Index: vdb.IndexHNSWSQ})
		if err != nil {
			return err
		}
		daStack, err := b.StackContext(ctx, dsName, milvusDiskANN())
		if err != nil {
			return err
		}
		// Also report LanceDB-IVF achieved accuracy (parenthesised in the
		// paper because the target is unreachable under PQ).
		lanceIVF, err := b.StackContext(ctx, dsName, vdb.Setup{Engine: vdb.LanceDB(), Index: vdb.IndexIVFPQ})
		if err != nil {
			return err
		}
		nlist := 0
		for _, seg := range ivfStack.Col.Segments() {
			if nl, ok := seg.Index.(interface{ NList() int }); ok {
				nlist += nl.NList()
			}
		}
		row(tw, dsName,
			nlist,
			ivfStack.Opts.NProbe,
			fmt.Sprintf("%.2f (%.2f)", ivfStack.Recall, lanceIVF.Recall),
			hnswStack.Opts.EfSearch,
			fmt.Sprintf("%.2f", hnswStack.Recall),
			lanceStack.Opts.EfSearch,
			fmt.Sprintf("%.2f", lanceStack.Recall),
			daStack.Opts.SearchList,
			fmt.Sprintf("%.2f", daStack.Recall),
		)
	}
	return tw.Flush()
}

// threadFigure is one of Figures 2–4: every paper setup across the thread
// ladder, one table per dataset, one metric per cell, a blank line after
// each table. The three figures measure the same memoised cells, so
// whichever runs first pays for the grid.
type threadFigure struct {
	metric   string
	datasets []string
	cell     func(Metrics) string
}

func (f threadFigure) run(ctx context.Context, b *Bench, w io.Writer) error {
	var pts []figPoint
	for _, dsName := range f.datasets {
		for _, setup := range setupsForFigure2() {
			for _, threads := range ThreadSweep {
				pts = append(pts, figPoint{ds: dsName, setup: setup, cfg: RunConfig{Threads: threads}})
			}
		}
	}
	outs, err := b.figure(ctx, pts)
	if err != nil {
		return err
	}
	i := 0
	for _, dsName := range f.datasets {
		fmt.Fprintf(w, "# %s — %s\n", dsName, f.metric)
		tw := table(w, append([]interface{}{"setup"}, threadsHeader()...)...)
		for _, setup := range setupsForFigure2() {
			cols := []interface{}{setup.Label()}
			for range ThreadSweep {
				cols = append(cols, f.cell(outs[i].Metrics))
				i++
			}
			row(tw, cols...)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

func threadsHeader() []interface{} {
	out := make([]interface{}, len(ThreadSweep))
	for i, t := range ThreadSweep {
		out[i] = fmt.Sprintf("t=%d", t)
	}
	return out
}
