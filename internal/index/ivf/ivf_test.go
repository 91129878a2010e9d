package ivf

import (
	"fmt"
	"slices"
	"testing"

	"svdbench/internal/dataset"
	"svdbench/internal/index"
	"svdbench/internal/index/pq"
	"svdbench/internal/vec"
)

func testData(t *testing.T) *dataset.Dataset {
	t.Helper()
	return dataset.Generate(dataset.Spec{
		Name: "ivf-test", N: 2000, Dim: 32, NumQueries: 40,
		Clusters: 16, Seed: 5, Metric: vec.Cosine, GroundK: 10,
	})
}

func searchAll(ds *dataset.Dataset, ix *Index, k int, opts index.SearchOptions) [][]int32 {
	out := make([][]int32, ds.Queries.Len())
	for qi := range out {
		out[qi] = ix.Search(ds.Queries.Row(qi), k, opts).IDs
	}
	return out
}

func TestFlatRecallReasonable(t *testing.T) {
	ds := testData(t)
	ix, err := Build(ds.Vectors, nil, Config{Metric: ds.Spec.Metric, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Probing every cell is an exact scan.
	all := searchAll(ds, ix, 10, index.SearchOptions{NProbe: ix.NList()})
	if r := dataset.MeanRecallAtK(all, ds.GroundTruth, 10); r < 0.999 {
		t.Errorf("nprobe=nlist recall = %v, want 1.0", r)
	}
	// Modest nprobe must reach usable recall on clustered data; the
	// harness tunes nprobe per dataset to hit 0.9 like the paper does.
	some := searchAll(ds, ix, 10, index.SearchOptions{NProbe: 16})
	if r := dataset.MeanRecallAtK(some, ds.GroundTruth, 10); r < 0.65 {
		t.Errorf("nprobe=16 recall = %v, want ≥0.65", r)
	}
	more := searchAll(ds, ix, 10, index.SearchOptions{NProbe: 48})
	if r := dataset.MeanRecallAtK(more, ds.GroundTruth, 10); r < 0.85 {
		t.Errorf("nprobe=48 recall = %v, want ≥0.85", r)
	}
}

func TestRecallMonotoneInNProbe(t *testing.T) {
	ds := testData(t)
	ix, _ := Build(ds.Vectors, nil, Config{Metric: ds.Spec.Metric, Seed: 1})
	prev := -1.0
	for _, np := range []int{1, 4, 16, 64} {
		r := dataset.MeanRecallAtK(searchAll(ds, ix, 10, index.SearchOptions{NProbe: np}), ds.GroundTruth, 10)
		if r < prev-0.02 { // tiny non-monotonicity tolerated
			t.Errorf("recall dropped from %v to %v at nprobe=%d", prev, r, np)
		}
		prev = r
	}
}

func TestDefaultNListRule(t *testing.T) {
	if got := DefaultNList(1_000_000); got != 4000 {
		t.Errorf("4·√1M = %d, want 4000", got)
	}
	if got := DefaultNList(0); got != 1 {
		t.Errorf("DefaultNList(0) = %d", got)
	}
}

func TestStatsAndProfile(t *testing.T) {
	ds := testData(t)
	ix, _ := Build(ds.Vectors, nil, Config{Metric: ds.Spec.Metric, Seed: 1})
	var p index.Profile
	res := ix.Search(ds.Queries.Row(0), 10, index.SearchOptions{NProbe: 4, Recorder: &p})
	if res.Stats.DistComps <= ix.NList() {
		t.Errorf("dist comps = %d, want more than centroid count %d", res.Stats.DistComps, ix.NList())
	}
	if len(p.Steps) != 1 || p.Steps[0].Work.Dist <= 0 {
		t.Fatalf("profile %+v, want one step of counted work", p.Steps)
	}
	if p.Steps[0].Pages != nil {
		t.Error("IVF_FLAT is memory-based but recorded I/O")
	}
}

func TestPQVariantIssuesIO(t *testing.T) {
	ds := testData(t)
	ix, err := Build(ds.Vectors, nil, Config{Metric: ds.Spec.Metric, Seed: 1, PQ: true, PQM: 8})
	if err != nil {
		t.Fatal(err)
	}
	var next int64
	ix.AssignPages(func(n int64) int64 {
		p := next
		next += n
		return p
	})
	var p index.Profile
	res := ix.Search(ds.Queries.Row(0), 10, index.SearchOptions{NProbe: 4, Recorder: &p})
	if res.Stats.PagesRead == 0 || len(p.Steps) < 2 || len(p.Steps[1].Pages) == 0 {
		t.Error("PQ variant issued no I/O")
	}
	if res.Stats.PQComps == 0 {
		t.Error("no PQ comparisons counted")
	}
	if ix.StorageBytes() == 0 {
		t.Error("no storage accounted")
	}
	if ix.Name() != "IVF_PQ" {
		t.Errorf("name = %s", ix.Name())
	}
}

func TestPQRecallLowerThanFlat(t *testing.T) {
	ds := testData(t)
	flat, _ := Build(ds.Vectors, nil, Config{Metric: ds.Spec.Metric, Seed: 1})
	pqix, _ := Build(ds.Vectors, nil, Config{Metric: ds.Spec.Metric, Seed: 1, PQ: true, PQM: 4})
	rFlat := dataset.MeanRecallAtK(searchAll(ds, flat, 10, index.SearchOptions{NProbe: 16}), ds.GroundTruth, 10)
	rPQ := dataset.MeanRecallAtK(searchAll(ds, pqix, 10, index.SearchOptions{NProbe: 16}), ds.GroundTruth, 10)
	if rPQ >= rFlat {
		t.Errorf("PQ recall %v not below flat recall %v (quantisation must cost accuracy)", rPQ, rFlat)
	}
	if rPQ < 0.2 {
		t.Errorf("PQ recall %v unusably low", rPQ)
	}
}

func TestFilterRespected(t *testing.T) {
	ds := testData(t)
	ix, _ := Build(ds.Vectors, nil, Config{Metric: ds.Spec.Metric, Seed: 1})
	res := ix.Search(ds.Queries.Row(0), 10, index.SearchOptions{
		NProbe: ix.NList(),
		Filter: func(id int32) bool { return id < 1000 },
	})
	for _, id := range res.IDs {
		if id >= 1000 {
			t.Fatalf("filter leaked id %d", id)
		}
	}
}

func TestEmptyDataRejected(t *testing.T) {
	if _, err := Build(vec.NewMatrix(0, 8), nil, Config{}); err == nil {
		t.Error("empty build accepted")
	}
}

func TestListsCoverAllRows(t *testing.T) {
	ds := testData(t)
	ix, _ := Build(ds.Vectors, nil, Config{Metric: ds.Spec.Metric, Seed: 1})
	seen := make([]bool, ds.Vectors.Len())
	for _, list := range ix.lists {
		for _, row := range list {
			if seen[row] {
				t.Fatalf("row %d in two cells", row)
			}
			seen[row] = true
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("row %d in no cell", i)
		}
	}
}

func TestNProbeDefaultsToOne(t *testing.T) {
	ds := testData(t)
	ix, _ := Build(ds.Vectors, nil, Config{Metric: ds.Spec.Metric, Seed: 1})
	res := ix.Search(ds.Queries.Row(0), 5, index.SearchOptions{})
	if len(res.IDs) == 0 {
		t.Error("nprobe=0 returned nothing")
	}
}

// TestPQBuildsAtDimsDiskANNAccepts: the default m is pq.DefaultM, the rule
// DiskANN uses, so IVF_PQ builds wherever DiskANN does — including dims that
// dim/8 does not divide, whose sub-vectors (10, 6 and 4 floats here) end in
// a d%4 tail — and probing every cell finds a query's own row first.
func TestPQBuildsAtDimsDiskANNAccepts(t *testing.T) {
	for _, dim := range []int{4, 6, 50, 100, 300} {
		ds := dataset.Generate(dataset.Spec{
			Name: fmt.Sprintf("ivf-pq-dim-%d", dim), N: 300, Dim: dim, NumQueries: 1,
			Clusters: 8, Seed: 3, Metric: vec.L2, GroundK: 1,
		})
		ix, err := Build(ds.Vectors, nil, Config{Metric: vec.L2, Seed: 1, PQ: true})
		if err != nil {
			t.Fatalf("dim %d: %v", dim, err)
		}
		if want := pq.DefaultM(dim); ix.quantizer.M() != want {
			t.Errorf("dim %d: m = %d, want %d", dim, ix.quantizer.M(), want)
		}
		res := ix.Search(ds.Vectors.Row(17), 10, index.SearchOptions{NProbe: ix.NList()})
		if len(res.IDs) != 10 {
			t.Fatalf("dim %d: %d results, want 10", dim, len(res.IDs))
		}
		if !slices.Contains(res.IDs, 17) {
			t.Errorf("dim %d: row 17 missing from its own top 10 %v", dim, res.IDs)
		}
	}
}
