package core

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"svdbench/internal/dataset"
	"svdbench/internal/index"
	"svdbench/internal/vdb"
)

// tinyBench builds a bench at the tiny scale with fast run defaults.
func tinyBench(t *testing.T) *Bench {
	t.Helper()
	b := NewBench(dataset.ScaleTiny, t.TempDir())
	b.RunDefaults = RunConfig{Duration: 100 * time.Millisecond, Repetitions: 1, Cores: 20}
	return b
}

func TestBenchDatasetCachedAndScaled(t *testing.T) {
	b := tinyBench(t)
	ds, err := b.Dataset("cohere-small")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Spec.Dim != 768 {
		t.Errorf("dim = %d", ds.Spec.Dim)
	}
	again, err := b.Dataset("cohere-small")
	if err != nil || again != ds {
		t.Error("dataset not memoised")
	}
	if _, err := b.Dataset("unknown"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestStackTunesToTargetRecall(t *testing.T) {
	b := tinyBench(t)
	st, err := b.Stack("cohere-small", vdb.Setup{Engine: vdb.Milvus(), Index: vdb.IndexHNSW})
	if err != nil {
		t.Fatal(err)
	}
	if st.Recall < TargetRecall-0.02 {
		t.Errorf("tuned recall = %v, want ≥%v", st.Recall, TargetRecall)
	}
	if st.Opts.EfSearch < PaperK {
		t.Errorf("efSearch = %d below k", st.Opts.EfSearch)
	}
	if len(st.Execs) != st.Dataset.Queries.Len() {
		t.Errorf("recorded %d execs", len(st.Execs))
	}
	// Memoised.
	again, err := b.Stack("cohere-small", vdb.Setup{Engine: vdb.Milvus(), Index: vdb.IndexHNSW})
	if err != nil || again != st {
		t.Error("stack not memoised")
	}
}

func TestStackDiskANNRecallAtMinimumSearchList(t *testing.T) {
	b := tinyBench(t)
	st, err := b.Stack("cohere-small", milvusDiskANN())
	if err != nil {
		t.Fatal(err)
	}
	// Tab. II: DiskANN reaches the target at the minimum search_list.
	if st.Opts.SearchList != 10 {
		t.Errorf("search_list = %d, want 10", st.Opts.SearchList)
	}
	if st.Recall < 0.85 {
		t.Errorf("DiskANN recall at L=10 = %v, want high", st.Recall)
	}
	// DiskANN executions carry I/O.
	pages := 0
	for _, s := range st.Execs[0].Segments {
		for _, step := range s {
			pages += len(step.Pages)
		}
	}
	if pages == 0 {
		t.Error("DiskANN exec recorded no pages")
	}
}

func TestHNSWParamsSharedAcrossEngines(t *testing.T) {
	b := tinyBench(t)
	milvus, err := b.Stack("openai-small", vdb.Setup{Engine: vdb.Milvus(), Index: vdb.IndexHNSW})
	if err != nil {
		t.Fatal(err)
	}
	qdrant, err := b.Stack("openai-small", vdb.Setup{Engine: vdb.Qdrant(), Index: vdb.IndexHNSW})
	if err != nil {
		t.Fatal(err)
	}
	if qdrant.Opts.EfSearch != milvus.Opts.EfSearch {
		t.Errorf("qdrant ef=%d, milvus ef=%d: paper shares the tuned value", qdrant.Opts.EfSearch, milvus.Opts.EfSearch)
	}
}

func TestLanceIVFPQReusesMilvusNProbe(t *testing.T) {
	b := tinyBench(t)
	milvus, err := b.Stack("cohere-small", vdb.Setup{Engine: vdb.Milvus(), Index: vdb.IndexIVFFlat})
	if err != nil {
		t.Fatal(err)
	}
	lance, err := b.Stack("cohere-small", vdb.Setup{Engine: vdb.LanceDB(), Index: vdb.IndexIVFPQ})
	if err != nil {
		t.Fatal(err)
	}
	if lance.Opts.NProbe != milvus.Opts.NProbe {
		t.Errorf("lance nprobe=%d, milvus nprobe=%d", lance.Opts.NProbe, milvus.Opts.NProbe)
	}
	// PQ costs accuracy (the paper's parenthesised column); at tiny scale
	// the loss can round away, so only assert it never helps.
	if lance.Recall > milvus.Recall+1e-9 {
		t.Errorf("lance recall %v above milvus %v", lance.Recall, milvus.Recall)
	}
	// The storage-based IVF_PQ must actually issue I/O.
	pages := 0
	for _, seg := range lance.Execs[0].Segments {
		for _, s := range seg {
			pages += len(s.Pages)
		}
	}
	if pages == 0 {
		t.Error("lance IVF_PQ exec recorded no pages")
	}
}

func TestExecsForMemoised(t *testing.T) {
	b := tinyBench(t)
	st, err := b.Stack("cohere-small", milvusDiskANN())
	if err != nil {
		t.Fatal(err)
	}
	opts := index.SearchOptions{SearchList: 20, BeamWidth: 4}
	a := st.ExecsFor(opts)
	bb := st.ExecsFor(opts)
	if &a[0] != &bb[0] {
		t.Error("variant executions not memoised")
	}
	// Tuned executions plus the explicit variant.
	if n := len(st.prep.execs.slots); n != 2 {
		t.Errorf("%d recorded variants, want 2", n)
	}
}

// TestMemoSharesAndEvicts: concurrent askers of one key share one
// computation, and a failed computation is not cached.
func TestMemoSharesAndEvicts(t *testing.T) {
	var m memo[string, int]
	var calls atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := m.get("k", func() (int, error) { calls.Add(1); return 42, nil }); v != 42 || err != nil {
				t.Errorf("get = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("%d computations for one key, want 1", n)
	}
	boom := errors.New("boom")
	if _, err := m.get("bad", func() (int, error) { return 0, boom }); err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if v, err := m.get("bad", func() (int, error) { return 7, nil }); v != 7 || err != nil {
		t.Errorf("after a failure get = %d, %v: the failure was cached", v, err)
	}
}

func TestRunCellMemoised(t *testing.T) {
	b := tinyBench(t)
	st, err := b.Stack("cohere-small", vdb.Setup{Engine: vdb.Qdrant(), Index: vdb.IndexHNSW})
	if err != nil {
		t.Fatal(err)
	}
	a := b.RunCell(st, st.Execs, RunConfig{Threads: 2}, "x")
	c := b.RunCell(st, st.Execs, RunConfig{Threads: 2}, "x")
	if a.Metrics.QPS != c.Metrics.QPS || len(b.runs.slots) != 1 {
		t.Errorf("run cell not memoised (%d simulations)", len(b.runs.slots))
	}
	// The memo keys on the whole config: the same cellID under another seed
	// is another simulation, and so is a timeline request after a plain one.
	b.RunCell(st, st.Execs, RunConfig{Threads: 2, Seed: 7}, "x")
	b.RunCell(st, st.Execs, RunConfig{Threads: 2, Timeline: true}, "x")
	if len(b.runs.slots) != 3 {
		t.Errorf("a different Seed or Timeline shared the memoised run (%d simulations, want 3)", len(b.runs.slots))
	}
}

// TestStackCacheKeyedOnBuildParams: a stack saved under one set of build
// parameters is a miss under another, and a hit under its own.
func TestStackCacheKeyedOnBuildParams(t *testing.T) {
	b := tinyBench(t)
	setup := vdb.Setup{Engine: vdb.Qdrant(), Index: vdb.IndexHNSW}
	st, err := b.Stack("cohere-small", setup)
	if err != nil {
		t.Fatal(err)
	}
	built, other := vdb.DefaultBuildParams(), vdb.DefaultBuildParams()
	other.EfConstruction++
	if b.loadCachedCollection("k", st.Dataset, setup, built) != nil {
		t.Fatal("cache hit before anything was saved")
	}
	b.saveCachedCollection("k", st.Dataset, st.Col, built)
	if b.loadCachedCollection("k", st.Dataset, setup, built) == nil {
		t.Error("stack not loaded under the parameters it was saved with")
	}
	if b.loadCachedCollection("k", st.Dataset, setup, other) != nil {
		t.Error("stack saved under one BuildParams loaded under another")
	}
}

func TestTuneUp(t *testing.T) {
	// Recall model: passes at v ≥ 37.
	eval := func(v int) float64 {
		if v >= 37 {
			return 0.95
		}
		return 0.5
	}
	if got := tuneUp("x", 1, 1000, eval); got != 37 {
		t.Errorf("tuneUp = %d, want 37", got)
	}
	// Unreachable target returns hi.
	if got := tuneUp("x", 1, 8, func(int) float64 { return 0.1 }); got != 8 {
		t.Errorf("unreachable tuneUp = %d, want 8", got)
	}
	// Passing at lo returns lo.
	if got := tuneUp("x", 5, 100, func(int) float64 { return 1 }); got != 5 {
		t.Errorf("lo-pass tuneUp = %d, want 5", got)
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 23 {
		t.Errorf("%d experiments, want 23 (2 tables + 14 figures + 7 extensions)", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.run == nil || e.Paper == "" || e.Title == "" {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if _, err := ExperimentByID("fig9"); err != nil {
		t.Error(err)
	}
	if _, err := ExperimentByID("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestTable1Experiment(t *testing.T) {
	b := tinyBench(t)
	var buf bytes.Buffer
	exp, _ := ExperimentByID("table1")
	if err := exp.Run(b, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"324.3 KIOPS", "1.3 MIOPS", "7.2 GiB/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig9ExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds all four DiskANN stacks")
	}
	b := tinyBench(t)
	var buf bytes.Buffer
	exp, _ := ExperimentByID("fig9")
	if err := exp.Run(b, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cohere-small") || !strings.Contains(buf.String(), "L=100") {
		t.Errorf("fig9 output malformed:\n%s", buf.String())
	}
}

func TestDescribeOpts(t *testing.T) {
	if describeOpts(vdb.IndexIVFFlat, index.SearchOptions{NProbe: 7}) != "nprobe=7" {
		t.Error("ivf describe wrong")
	}
	if describeOpts(vdb.IndexHNSW, index.SearchOptions{EfSearch: 9}) != "efSearch=9" {
		t.Error("hnsw describe wrong")
	}
	if !strings.Contains(describeOpts(vdb.IndexDiskANN, index.SearchOptions{SearchList: 10, BeamWidth: 4}), "search_list=10") {
		t.Error("diskann describe wrong")
	}
}
