package core

import (
	"context"
	"fmt"
	"io"

	"svdbench/internal/index"
	"svdbench/internal/vdb"
)

// searchListOpts returns the DiskANN options of one Fig. 7–11 sweep point.
func searchListOpts(L int) index.SearchOptions {
	return index.NewSearchOptions(index.WithSearchList(L), index.WithBeamWidth(4))
}

// beamWidthOpts returns the DiskANN options of one Fig. 12–15 sweep point.
// As in the paper (Sec. VI-B), search_list is fixed at 100 so candidate
// availability does not bottleneck the beam.
func beamWidthOpts(W int) index.SearchOptions {
	return index.NewSearchOptions(index.WithSearchList(100), index.WithBeamWidth(W))
}

func sweepHeader(vals []int, prefix string) []interface{} {
	out := make([]interface{}, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprintf("%s=%d", prefix, v)
	}
	return out
}

// ladder selects the DiskANN parameter a Figure 7–15 table sweeps.
type ladder int

const (
	searchList ladder = iota // Figs. 7–11: SearchListSweep at beam_width 4
	beamWidth                // Figs. 12–15: BeamWidthSweep at search_list 100
)

// paramFigure is one of Figures 7, 8 and 10–15: Milvus-DiskANN on every
// dataset across one parameter ladder, one metric per cell, one table per
// thread count. Figures with two thread counts print a blank line after
// each table.
type paramFigure struct {
	metric  string
	ladder  ladder
	threads []int
	cell    func(Metrics) string
}

func (f paramFigure) run(ctx context.Context, b *Bench, w io.Writer) error {
	vals, prefix, axis, optsFor, maxReads := SearchListSweep, "L", "search_list", searchListOpts, 0
	if f.ladder == beamWidth {
		// The paper raises Milvus's maxReadConcurrentRatio for the beam
		// width sweep so the beam is never starved of scheduler slots; the
		// equivalent here is raising the segment-task pool well beyond the
		// core count.
		vals, prefix, axis, optsFor, maxReads = BeamWidthSweep, "W", "beam_width, search_list=100", beamWidthOpts, 256
	}
	var pts []figPoint
	for _, threads := range f.threads {
		for _, dsName := range paperDatasets() {
			for _, v := range vals {
				opts := optsFor(v)
				pts = append(pts, figPoint{dsName, milvusDiskANN(), &opts, RunConfig{Threads: threads, MaxReadConcurrent: maxReads}})
			}
		}
	}
	outs, err := b.figure(ctx, pts)
	if err != nil {
		return err
	}
	i := 0
	for _, threads := range f.threads {
		fmt.Fprintf(w, "# Milvus-DiskANN %s vs %s, threads=%d\n", f.metric, axis, threads)
		tw := table(w, append([]interface{}{"dataset"}, sweepHeader(vals, prefix)...)...)
		for _, dsName := range paperDatasets() {
			cols := []interface{}{dsName}
			for range vals {
				cols = append(cols, f.cell(outs[i].Metrics))
				i++
			}
			row(tw, cols...)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		if len(f.threads) > 1 {
			fmt.Fprintln(w)
		}
	}
	return nil
}

// runFig9 prints recall@10 across search_list (pure algorithm property, no
// simulation involved).
func runFig9(ctx context.Context, b *Bench, w io.Writer) error {
	if err := b.prefetchStacks(ctx, paperDatasets(), []vdb.Setup{milvusDiskANN()}); err != nil {
		return err
	}
	fmt.Fprintln(w, "# Milvus-DiskANN recall@10 vs search_list")
	tw := table(w, append([]interface{}{"dataset"}, sweepHeader(SearchListSweep, "L")...)...)
	for _, dsName := range paperDatasets() {
		st, err := b.StackContext(ctx, dsName, milvusDiskANN())
		if err != nil {
			return err
		}
		cols := []interface{}{dsName}
		for _, L := range SearchListSweep {
			cols = append(cols, fmt.Sprintf("%.3f", st.RecallFor(searchListOpts(L))))
		}
		row(tw, cols...)
	}
	return tw.Flush()
}
