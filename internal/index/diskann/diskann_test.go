package diskann

import (
	"strings"
	"sync"
	"testing"

	"svdbench/internal/dataset"
	"svdbench/internal/index"
	"svdbench/internal/vec"
)

func testData(t *testing.T) *dataset.Dataset {
	t.Helper()
	return dataset.Generate(dataset.Spec{
		Name: "diskann-test", N: 1500, Dim: 32, NumQueries: 40,
		Clusters: 16, Seed: 11, Metric: vec.Cosine, GroundK: 10,
	})
}

func build(t *testing.T, ds *dataset.Dataset, cfg Config) *Index {
	t.Helper()
	cfg.Metric = ds.Spec.Metric
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	ix, err := Build(ds.Vectors, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// sharedIndex caches the standard test index: most tests search it
// read-only, so one build serves them all.
var sharedOnce sync.Once
var sharedIx *Index
var sharedDS *dataset.Dataset

func shared(t *testing.T) (*dataset.Dataset, *Index) {
	t.Helper()
	sharedOnce.Do(func() {
		sharedDS = dataset.Generate(dataset.Spec{
			Name: "diskann-test", N: 1500, Dim: 32, NumQueries: 40,
			Clusters: 16, Seed: 11, Metric: vec.Cosine, GroundK: 10,
		})
		ix, err := Build(sharedDS.Vectors, nil, Config{R: 32, LBuild: 64, PQM: 8, Metric: vec.Cosine, Seed: 1})
		if err != nil {
			panic(err)
		}
		sharedIx = ix
	})
	return sharedDS, sharedIx
}

func searchAll(ds *dataset.Dataset, ix *Index, k int, opts index.SearchOptions) [][]int32 {
	out := make([][]int32, ds.Queries.Len())
	for qi := range out {
		out[qi] = ix.Search(ds.Queries.Row(qi), k, opts).IDs
	}
	return out
}

func TestRecallAtModestSearchList(t *testing.T) {
	ds, ix := shared(t)
	r := dataset.MeanRecallAtK(searchAll(ds, ix, 10, index.SearchOptions{SearchList: 20, BeamWidth: 4}), ds.GroundTruth, 10)
	// The paper's Tab. II reports DiskANN reaching ≥0.93 at search_list=10;
	// with re-ranking recall is high even at small L.
	if r < 0.85 {
		t.Errorf("recall@10 with L=20 = %v, want ≥0.85", r)
	}
}

func TestRecallGrowsWithSearchList(t *testing.T) {
	ds, ix := shared(t)
	low := dataset.MeanRecallAtK(searchAll(ds, ix, 10, index.SearchOptions{SearchList: 10, BeamWidth: 4}), ds.GroundTruth, 10)
	high := dataset.MeanRecallAtK(searchAll(ds, ix, 10, index.SearchOptions{SearchList: 100, BeamWidth: 4}), ds.GroundTruth, 10)
	if high+0.02 < low {
		t.Errorf("recall fell from %v to %v as search_list grew (Fig. 9 shape violated)", low, high)
	}
	if high < 0.9 {
		t.Errorf("L=100 recall = %v, want ≥0.9", high)
	}
}

func TestIOGrowsWithSearchList(t *testing.T) {
	ds, ix := shared(t)
	q := ds.Queries.Row(0)
	small := ix.Search(q, 10, index.SearchOptions{SearchList: 10, BeamWidth: 4}).Stats
	big := ix.Search(q, 10, index.SearchOptions{SearchList: 100, BeamWidth: 4}).Stats
	if big.PagesRead <= small.PagesRead {
		t.Errorf("pages read did not grow with search_list: %d vs %d (O-20 shape violated)", small.PagesRead, big.PagesRead)
	}
}

func TestDegreeBounded(t *testing.T) {
	ds := testData(t)
	cfg := Config{R: 24, LBuild: 48, PQM: 8}
	ix := build(t, ds, cfg)
	for row := int32(0); row < int32(ds.Vectors.Len()); row++ {
		if d := ix.Degree(row); d > cfg.R {
			t.Fatalf("node %d degree %d exceeds R=%d", row, d, cfg.R)
		}
	}
}

func TestPagesPerNodeByDimension(t *testing.T) {
	// 768-d at R=48: 3072+4+192 = 3268 B → one 4 KiB page.
	ds768 := dataset.Generate(dataset.Spec{Name: "d768", N: 300, Dim: 768, NumQueries: 2, Clusters: 4, Seed: 1, Metric: vec.Cosine, GroundK: 5})
	ix768, err := Build(ds768.Vectors, nil, Config{Metric: vec.Cosine, Seed: 1, PQM: 96, LBuild: 32, R: 48})
	if err != nil {
		t.Fatal(err)
	}
	if ix768.PagesPerNode() != 1 {
		t.Errorf("768-d pages/node = %d, want 1", ix768.PagesPerNode())
	}
	// 1536-d: 6144+4+192 = 6340 B → two pages.
	ds1536 := dataset.Generate(dataset.Spec{Name: "d1536", N: 300, Dim: 1536, NumQueries: 2, Clusters: 4, Seed: 1, Metric: vec.Cosine, GroundK: 5})
	ix1536, err := Build(ds1536.Vectors, nil, Config{Metric: vec.Cosine, Seed: 1, PQM: 192, LBuild: 32, R: 48})
	if err != nil {
		t.Fatal(err)
	}
	if ix1536.PagesPerNode() != 2 {
		t.Errorf("1536-d pages/node = %d, want 2", ix1536.PagesPerNode())
	}
}

func TestProfileInterleavesComputeAndIO(t *testing.T) {
	ds, ix := shared(t)
	var next int64
	ix.AssignPages(func(n int64) int64 { p := next; next += n; return p })
	var p index.Profile
	res := ix.Search(ds.Queries.Row(0), 10, index.SearchOptions{SearchList: 20, BeamWidth: 4, Recorder: &p})
	pages, _ := profilePages(&p)
	if pages == 0 {
		t.Fatal("no I/O recorded")
	}
	if pages != res.Stats.PagesRead {
		t.Errorf("profile pages %d != stats pages %d", pages, res.Stats.PagesRead)
	}
	ioSteps := 0
	for _, s := range p.Steps {
		if len(s.Pages) > 0 {
			ioSteps++
			if len(s.Pages) > 4*ix.PagesPerNode() {
				t.Errorf("beam step fetched %d pages, exceeds W×pages/node", len(s.Pages))
			}
		}
	}
	if ioSteps != res.Stats.Hops {
		t.Errorf("io steps %d != hops %d", ioSteps, res.Stats.Hops)
	}
}

func TestBeamWidthReducesHops(t *testing.T) {
	ds, ix := shared(t)
	q := ds.Queries.Row(0)
	w1 := ix.Search(q, 10, index.SearchOptions{SearchList: 50, BeamWidth: 1}).Stats
	w8 := ix.Search(q, 10, index.SearchOptions{SearchList: 50, BeamWidth: 8}).Stats
	if w8.Hops >= w1.Hops {
		t.Errorf("hops with W=8 (%d) not below W=1 (%d)", w8.Hops, w1.Hops)
	}
}

func TestBestFirstIsBeamWidthOne(t *testing.T) {
	// W=1 degenerates to best-first search (Sec. II-B): every hop fetches
	// exactly pagesPerNode pages.
	ds, ix := shared(t)
	res := ix.Search(ds.Queries.Row(0), 10, index.SearchOptions{SearchList: 20, BeamWidth: 1})
	if res.Stats.PagesRead != res.Stats.Hops*ix.PagesPerNode() {
		t.Errorf("W=1: pages %d != hops %d", res.Stats.PagesRead, res.Stats.Hops)
	}
}

func TestStatsCountBothDistanceKinds(t *testing.T) {
	ds, ix := shared(t)
	res := ix.Search(ds.Queries.Row(0), 10, index.SearchOptions{SearchList: 20, BeamWidth: 4})
	if res.Stats.PQComps == 0 {
		t.Error("no PQ comparisons")
	}
	if res.Stats.DistComps == 0 {
		t.Error("no exact re-rank comparisons")
	}
	if res.Stats.DistComps > res.Stats.PQComps {
		t.Error("exact comps should be far fewer than PQ comps")
	}
}

func TestMemoryFarBelowStorage(t *testing.T) {
	_, ix := shared(t)
	if ix.MemoryBytes() >= ix.StorageBytes() {
		t.Errorf("memory %d not below storage %d — DiskANN's point is a small resident set", ix.MemoryBytes(), ix.StorageBytes())
	}
}

func TestFilterRespected(t *testing.T) {
	ds, ix := shared(t)
	res := ix.Search(ds.Queries.Row(0), 10, index.SearchOptions{SearchList: 50, BeamWidth: 4, Filter: func(id int32) bool { return id%2 == 1 }})
	for _, id := range res.IDs {
		if id%2 != 1 {
			t.Fatalf("filter leaked id %d", id)
		}
	}
}

func TestEmptyDataRejected(t *testing.T) {
	if _, err := Build(vec.NewMatrix(0, 8), nil, Config{}); err == nil {
		t.Error("empty build accepted")
	}
}

// TestBuildRejectsUnknownLayout: a bad Config.Layout fails up front, not
// after PQ training and both Vamana passes — the rejected call allocates the
// error and nothing else.
func TestBuildRejectsUnknownLayout(t *testing.T) {
	ds := testData(t)
	var err error
	allocs := testing.AllocsPerRun(1, func() {
		_, err = Build(ds.Vectors, nil, Config{Layout: "slab"})
	})
	if err == nil || !strings.Contains(err.Error(), `unknown layout "slab"`) {
		t.Fatalf("err = %v, want unknown layout", err)
	}
	if allocs > 8 {
		t.Errorf("rejected build made %v allocations: the layout is validated after the work", allocs)
	}
}

func TestSearchListBelowKClamped(t *testing.T) {
	ds, ix := shared(t)
	res := ix.Search(ds.Queries.Row(0), 10, index.SearchOptions{SearchList: 1, BeamWidth: 2})
	if len(res.IDs) != 10 {
		t.Errorf("got %d results with L<k", len(res.IDs))
	}
}
