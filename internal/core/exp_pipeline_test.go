package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"svdbench/internal/index"
	"svdbench/internal/index/spann"
)

// TestPipelineLookAheadCutsLatency is the PR's acceptance criterion: at one
// closed-loop thread, look-ahead ≥ 2 with coalesced submission must cut mean
// latency by at least 20% against the synchronous baseline at equal recall
// (equal by construction — the result sets are asserted byte-identical).
// SPANN anchors the bound: its probe order is fixed after navigation, so the
// prefetch of posting j+1 overlaps cleanly with posting j's scan.
func TestPipelineLookAheadCutsLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an index and runs the simulation")
	}
	b := tinyBench(t)
	ds, err := b.Dataset("cohere-small")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := spann.Build(ds.Vectors, nil, spann.Config{Metric: ds.Spec.Metric, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var page int64
	sp.AssignPages(func(n int64) int64 { p := page; page += n; return p })
	nprobe := 8
	if nprobe > sp.Postings() {
		nprobe = sp.Postings()
	}
	opts := index.SearchOptions{NProbe: nprobe}

	syncExecs, syncRecall := recordRaw(ds, sp, opts, ds.Queries.Len())
	laExecs, laRecall := recordRaw(ds, sp, opts.With(index.WithLookAhead(2)), ds.Queries.Len())
	if syncRecall != laRecall {
		t.Fatalf("recall changed under look-ahead: %v vs %v", syncRecall, laRecall)
	}
	for qi := range syncExecs {
		if !reflect.DeepEqual(syncExecs[qi].IDs, laExecs[qi].IDs) {
			t.Fatalf("query %d: look-ahead changed the result set", qi)
		}
	}

	cfg := RunConfig{Threads: 1, Duration: 100 * time.Millisecond, Repetitions: 1, Cores: 20}
	ctx := context.Background()
	syncOut, err := RunContext(ctx, syncExecs, neutralEngine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	laCfg := cfg
	laCfg.CoalesceReads = true
	laCfg.LookAhead = 2
	laOut, err := RunContext(ctx, laExecs, neutralEngine, laCfg)
	if err != nil {
		t.Fatal(err)
	}
	if syncOut.Metrics.Served == 0 || laOut.Metrics.Served == 0 {
		t.Fatalf("empty runs: sync served %d, pipelined served %d",
			syncOut.Metrics.Served, laOut.Metrics.Served)
	}
	base, pipelined := syncOut.Metrics.MeanLatency, laOut.Metrics.MeanLatency
	if float64(pipelined) > 0.8*float64(base) {
		t.Errorf("pipelined mean latency %v is not ≥20%% below synchronous %v", pipelined, base)
	}
	if laOut.Metrics.OverlapFrac <= syncOut.Metrics.OverlapFrac {
		t.Errorf("pipelined CPU/device overlap %.3f not above synchronous %.3f",
			laOut.Metrics.OverlapFrac, syncOut.Metrics.OverlapFrac)
	}
}

// TestPipelineExperimentRegistered: the sweep is part of the registry with
// its extension label.
func TestPipelineExperimentRegistered(t *testing.T) {
	exp, err := ExperimentByID("pipeline")
	if err != nil {
		t.Fatal(err)
	}
	if exp.Paper != "Extension F" {
		t.Errorf("pipeline experiment labelled %q, want Extension F", exp.Paper)
	}
}
