package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"svdbench/internal/dataset"
	"svdbench/internal/vdb"
)

// ErrUnknownExperiment is returned by ExperimentByID for an id outside the
// registry. It marks a user error (a bad -experiment flag) as opposed to an
// internal failure; cmd/annbench maps it to a distinct exit code.
var ErrUnknownExperiment = errors.New("core: unknown experiment")

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	// ID is the harness identifier ("fig2", "table1", "extA", ...).
	ID string
	// Paper names the table/figure in the paper.
	Paper string
	// Title describes what is measured.
	Title string

	// run executes the experiment, writing its rows to w.
	run func(ctx context.Context, b *Bench, w io.Writer) error
}

// Run executes the experiment, writing its rows to w. It is the
// context-free wrapper over RunContext.
func (e Experiment) Run(b *Bench, w io.Writer) error {
	return e.RunContext(context.Background(), b, w)
}

// RunContext executes the experiment under ctx: cancelling ctx stops the
// measurement grid within one cell and returns ctx's error.
func (e Experiment) RunContext(ctx context.Context, b *Bench, w io.Writer) error {
	if e.run == nil {
		return fmt.Errorf("%w: experiment %q has no runner", ErrUnknownExperiment, e.ID)
	}
	return e.run(ctx, b, w)
}

// Experiments returns the full registry in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table1", Paper: "Table I", Title: "SSD calibration: fio-style raw device envelope", run: runTable1},
		{ID: "table2", Paper: "Table II", Title: "Build/search-time parameters and achieved recall@10", run: runTable2},
		{ID: "fig2", Paper: "Figure 2", Title: "Throughput scalability vs query threads", run: threadFigure{"throughput (QPS), higher is better", paperDatasets(), failLabel}.run},
		{ID: "fig3", Paper: "Figure 3", Title: "P99 latency scalability vs query threads", run: threadFigure{"P99 latency (µs), lower is better", paperDatasets(), p99OrFail}.run},
		{ID: "fig4", Paper: "Figure 4", Title: "Global CPU usage vs query threads", run: threadFigure{"global CPU usage (%), 100 = all cores busy", []string{"cohere-large", "openai-large"}, cpuPercent}.run},
		{ID: "fig5", Paper: "Figure 5", Title: "Milvus-DiskANN read bandwidth timeline", run: runFig5},
		{ID: "fig6", Paper: "Figure 6", Title: "Milvus-DiskANN per-query read bandwidth", run: runFig6},
		{ID: "fig7", Paper: "Figure 7", Title: "DiskANN throughput vs search_list", run: paramFigure{"throughput (QPS)", searchList, []int{1, 256}, qps}.run},
		{ID: "fig8", Paper: "Figure 8", Title: "DiskANN P99 latency vs search_list", run: paramFigure{"P99 latency (µs)", searchList, []int{1}, p99}.run},
		{ID: "fig9", Paper: "Figure 9", Title: "DiskANN recall@10 vs search_list", run: runFig9},
		{ID: "fig10", Paper: "Figure 10", Title: "DiskANN total read bandwidth vs search_list", run: paramFigure{"read bandwidth (MiB/s)", searchList, []int{1, 256}, readMiBps}.run},
		{ID: "fig11", Paper: "Figure 11", Title: "DiskANN per-query bandwidth vs search_list", run: paramFigure{"per-query read volume (KiB/query)", searchList, []int{1, 256}, kibPerQuery}.run},
		{ID: "fig12", Paper: "Figure 12", Title: "DiskANN throughput vs beam_width", run: paramFigure{"throughput (QPS)", beamWidth, []int{1}, qps}.run},
		{ID: "fig13", Paper: "Figure 13", Title: "DiskANN P99 latency vs beam_width", run: paramFigure{"P99 latency (µs)", beamWidth, []int{1}, p99}.run},
		{ID: "fig14", Paper: "Figure 14", Title: "DiskANN total read bandwidth vs beam_width", run: paramFigure{"read bandwidth (MiB/s)", beamWidth, []int{1}, readMiBps}.run},
		{ID: "fig15", Paper: "Figure 15", Title: "DiskANN per-query bandwidth vs beam_width", run: paramFigure{"per-query read volume (KiB/query)", beamWidth, []int{1}, kibPerQuery}.run},
		{ID: "extA", Paper: "Extension A", Title: "Hybrid search + insert/delete workload (Sec. VIII)", run: runExtA},
		{ID: "extB", Paper: "Extension B", Title: "Filtered search performance (Sec. VIII)", run: runExtB},
		{ID: "extC", Paper: "Extension C", Title: "Design ablations: beam width 1, monolithic Milvus", run: runExtC},
		{ID: "extD", Paper: "Extension D", Title: "Storage-index shoot-out: DiskANN vs SPANN-style clusters", run: runExtD},
		{ID: "cache", Paper: "Extension E", Title: "Node-cache sweep: hit rate, device reads, and latency vs capacity and policy", run: runCache},
		{ID: "pipeline", Paper: "Extension F", Title: "Async pipeline: look-ahead prefetch and coalesced submission vs the synchronous baseline", run: runPipeline},
		{ID: "layout", Paper: "Extension G", Title: "Page-node layout: device reads, hops, and latency vs the ID-packed baseline at equal recall", run: runLayout},
	}
}

// ExperimentByID finds an experiment.
func ExperimentByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("%w %q (have %v)", ErrUnknownExperiment, id, ids)
}

// table starts an aligned output table with a header row.
func table(w io.Writer, cols ...interface{}) *tabwriter.Writer {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	row(tw, cols...)
	return tw
}

func row(tw *tabwriter.Writer, cols ...interface{}) {
	for i, c := range cols {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprint(tw, c)
	}
	fmt.Fprintln(tw)
}

// paperDatasets is the evaluation's dataset order.
func paperDatasets() []string { return dataset.CatalogNames() }

// setupsForFigure2 returns the seven setups, LanceDB last as in the paper's
// legends.
func setupsForFigure2() []vdb.Setup { return vdb.PaperSetups() }

// milvusDiskANN is the setup Sections V and VI study exclusively.
func milvusDiskANN() vdb.Setup { return vdb.Setup{Engine: vdb.Milvus(), Index: vdb.IndexDiskANN} }

// failLabel annotates a cell whose queries failed (the paper's LanceDB OOM
// exclusions).
func failLabel(m Metrics) string {
	if m.Failed > 0 && m.Served == 0 {
		return "FAIL(oom)"
	}
	if m.Failed > 0 {
		return fmt.Sprintf("%.1f (partial, %d oom)", m.QPS, m.Failed)
	}
	return qps(m)
}

// Figure cell formats.
func qps(m Metrics) string         { return fmt.Sprintf("%.1f", m.QPS) }
func p99(m Metrics) string         { return fmtDur(m.P99) }
func readMiBps(m Metrics) string   { return fmt.Sprintf("%.1f", m.ReadMiBps) }
func kibPerQuery(m Metrics) string { return fmt.Sprintf("%.1f", m.KiBPerQuery()) }
func cpuPercent(m Metrics) string  { return fmt.Sprintf("%.1f", 100*m.CPUUtil) }

// p99OrFail is p99, or FAIL for a cell that served no query.
func p99OrFail(m Metrics) string {
	if m.Served == 0 {
		return "FAIL"
	}
	return p99(m)
}
