package core

import (
	"testing"

	"svdbench/internal/index"
)

func TestLayoutExperimentRegistered(t *testing.T) {
	exp, err := ExperimentByID("layout")
	if err != nil {
		t.Fatal(err)
	}
	if exp.Paper != "Extension G" {
		t.Errorf("layout experiment maps to %q, want Extension G", exp.Paper)
	}
}

// TestLayoutCutsDeviceReadsAtEqualRecall is the PR's acceptance criterion:
// at the ID baseline's recall (±0.5 pt), the page-node layout must issue at
// least 30% fewer device reads per query on the 768-d segment.
func TestLayoutCutsDeviceReadsAtEqualRecall(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an index stack")
	}
	b := tinyBench(t)
	st, err := b.Stack("cohere-large", monoDiskANN())
	if err != nil {
		t.Fatal(err)
	}

	pageEq := st.Opts.With(index.WithLayout(index.LayoutPage))
	hi := 2 * st.Opts.SearchList
	if hi < 16 {
		hi = 16
	}
	target := st.Recall - 0.005
	tunedL := tuneUpTo(1, hi, target, func(v int) float64 {
		return st.RecallFor(pageEq.With(index.WithSearchList(v)))
	})
	pageOpts := pageEq.With(index.WithSearchList(tunedL))
	if r := st.RecallFor(pageOpts); r < target {
		t.Fatalf("tuned page recall %.3f below target %.3f (L=%d)", r, target, tunedL)
	}

	idOut := b.RunCell(st, st.ExecsFor(st.Opts), RunConfig{Threads: 4}, "layout-accept-id")
	pgOut := b.RunCell(st, st.ExecsFor(pageOpts), RunConfig{Threads: 4}, "layout-accept-page")
	if idOut.Metrics.Served == 0 || pgOut.Metrics.Served == 0 {
		t.Fatalf("no served queries: id %d, page %d", idOut.Metrics.Served, pgOut.Metrics.Served)
	}
	idReads := float64(idOut.Metrics.ReadOps) / float64(idOut.Metrics.Served)
	pgReads := float64(pgOut.Metrics.ReadOps) / float64(pgOut.Metrics.Served)
	if pgReads > 0.7*idReads {
		t.Errorf("page layout reads/query = %.2f, want ≤ 70%% of id's %.2f", pgReads, idReads)
	}
}
