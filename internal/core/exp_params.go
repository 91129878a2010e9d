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

// diskannSweep measures every dataset across a DiskANN parameter ladder as
// one flattened scheduler grid: each (dataset, value) pair is its own cell,
// so the whole figure's measurement fans out over host workers instead of
// serialising per dataset. Results are keyed dataset → swept value.
func (b *Bench) diskannSweep(ctx context.Context, vals []int,
	optsFor func(int) index.SearchOptions, cfgFor func(int) RunConfig,
	cellIDFor func(int) string) (map[string]map[int]Metrics, error) {

	type point struct {
		ds  string
		val int
	}
	var pts []point
	for _, dsName := range paperDatasets() {
		for _, v := range vals {
			pts = append(pts, point{dsName, v})
		}
	}
	outs := make([]Metrics, len(pts))
	cells := make([]cell, len(pts))
	for i, p := range pts {
		i, p := i, p
		cells[i] = cell{
			key: fmt.Sprintf("%s/%s", p.ds, cellIDFor(p.val)),
			run: func(ctx context.Context) error {
				st, err := b.StackContext(ctx, p.ds, milvusDiskANN())
				if err != nil {
					return err
				}
				execs := st.ExecsFor(optsFor(p.val))
				res, err := b.RunCellContext(ctx, st, execs, cfgFor(p.val), cellIDFor(p.val))
				outs[i] = res.Metrics
				return err
			},
		}
	}
	if err := b.runGrid(ctx, cells); err != nil {
		return nil, err
	}
	res := map[string]map[int]Metrics{}
	for i, p := range pts {
		if res[p.ds] == nil {
			res[p.ds] = map[int]Metrics{}
		}
		res[p.ds][p.val] = outs[i]
	}
	return res, nil
}

// sweepSearchList measures all datasets across the search_list ladder at the
// given concurrency.
func (b *Bench) sweepSearchList(ctx context.Context, threads int) (map[string]map[int]Metrics, error) {
	return b.diskannSweep(ctx, SearchListSweep,
		searchListOpts,
		func(int) RunConfig { return RunConfig{Threads: threads} },
		func(L int) string { return fmt.Sprintf("figSL-%d", L) })
}

// sweepBeamWidth measures all datasets across the beam_width ladder. The
// paper raises Milvus's maxReadConcurrentRatio for this experiment so the
// beam is never starved of scheduler slots; the equivalent here is raising
// the segment-task pool well beyond the core count.
func (b *Bench) sweepBeamWidth(ctx context.Context, threads int) (map[string]map[int]Metrics, error) {
	return b.diskannSweep(ctx, BeamWidthSweep,
		beamWidthOpts,
		func(int) RunConfig { return RunConfig{Threads: threads, MaxReadConcurrent: 256} },
		func(W int) string { return fmt.Sprintf("figBW-%d", W) })
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
	vals, prefix, axis, sweep := SearchListSweep, "L", "search_list", b.sweepSearchList
	if f.ladder == beamWidth {
		vals, prefix, axis, sweep = BeamWidthSweep, "W", "beam_width, search_list=100", b.sweepBeamWidth
	}
	for _, threads := range f.threads {
		res, err := sweep(ctx, threads)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# Milvus-DiskANN %s vs %s, threads=%d\n", f.metric, axis, threads)
		tw := table(w, append([]interface{}{"dataset"}, sweepHeader(vals, prefix)...)...)
		for _, dsName := range paperDatasets() {
			cols := []interface{}{dsName}
			for _, v := range vals {
				cols = append(cols, f.cell(res[dsName][v]))
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
