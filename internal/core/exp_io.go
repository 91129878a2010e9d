package core

import (
	"context"
	"fmt"
	"io"
)

// diskannPlateauThreads is the concurrency at which Milvus-DiskANN's
// throughput plateaus in the paper (Sec. IV-A: after 4 concurrent threads).
const diskannPlateauThreads = 4

// fig56Threads are the Fig. 5/6 concurrency levels: 1, the plateau, and 256.
var fig56Threads = []int{1, diskannPlateauThreads, 256}

// fig56Grid runs the Fig. 5/6 timeline cells — every dataset at each of
// fig56Threads, in that order — as one grid. Both figures read from the
// same memoised cells, so whichever runs first pays for the grid.
func (b *Bench) fig56Grid(ctx context.Context) ([]RunOutput, error) {
	var pts []figPoint
	for _, dsName := range paperDatasets() {
		for _, threads := range fig56Threads {
			pts = append(pts, figPoint{ds: dsName, setup: milvusDiskANN(), cfg: RunConfig{Threads: threads}})
		}
	}
	return b.figure(ctx, pts)
}

// runFig5 traces Milvus-DiskANN read bandwidth over the run at three
// concurrency levels: 1, the plateau, and 256 (Sec. V-A).
func runFig5(ctx context.Context, b *Bench, w io.Writer) error {
	grid, err := b.fig56Grid(ctx)
	if err != nil {
		return err
	}
	for di, dsName := range paperDatasets() {
		fmt.Fprintf(w, "# %s — Milvus-DiskANN read bandwidth timeline (MiB/s per bucket)\n", dsName)
		for ti, threads := range fig56Threads {
			res := grid[di*len(fig56Threads)+ti]
			fmt.Fprintf(w, "threads=%d mean=%.1f MiB/s: ", threads, res.Metrics.ReadMiBps)
			for _, p := range res.Timeline {
				fmt.Fprintf(w, "%.0f ", p.ReadMiBps(res.TimelineBucket))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// runFig6 reports per-query average read bandwidth of Milvus-DiskANN at
// concurrency 1 and 256, plus the request-size observation O-15.
func runFig6(ctx context.Context, b *Bench, w io.Writer) error {
	grid, err := b.fig56Grid(ctx)
	if err != nil {
		return err
	}
	tw := table(w, "dataset", "threads", "KiB/query", "read MiB/s", "QPS", "4KiB fraction")
	for di, dsName := range paperDatasets() {
		for ti, threads := range fig56Threads {
			if threads == diskannPlateauThreads {
				continue
			}
			m := grid[di*len(fig56Threads)+ti].Metrics
			row(tw, dsName, threads,
				fmt.Sprintf("%.1f", m.KiBPerQuery()),
				fmt.Sprintf("%.1f", m.ReadMiBps),
				fmt.Sprintf("%.1f", m.QPS),
				fmt.Sprintf("%.5f", m.Frac4KiB))
		}
	}
	return tw.Flush()
}
