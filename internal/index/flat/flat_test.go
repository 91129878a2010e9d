package flat

import (
	"testing"

	"svdbench/internal/dataset"
	"svdbench/internal/index"
	"svdbench/internal/vec"
)

func testData() *dataset.Dataset {
	return dataset.Generate(dataset.Spec{
		Name: "flat-test", N: 400, Dim: 24, NumQueries: 25,
		Clusters: 8, Seed: 3, Metric: vec.Cosine, GroundK: 10,
	})
}

func TestExactRecall(t *testing.T) {
	ds := testData()
	ix := New(ds.Vectors, ds.Spec.Metric, nil)
	results := make([][]int32, ds.Queries.Len())
	for qi := range results {
		res := ix.Search(ds.Queries.Row(qi), 10, index.SearchOptions{})
		results[qi] = res.IDs
	}
	if r := dataset.MeanRecallAtK(results, ds.GroundTruth, 10); r != 1 {
		t.Errorf("flat recall = %v, want exactly 1", r)
	}
}

func TestStatsCountScan(t *testing.T) {
	ds := testData()
	ix := New(ds.Vectors, ds.Spec.Metric, nil)
	res := ix.Search(ds.Queries.Row(0), 5, index.SearchOptions{})
	if res.Stats.DistComps != 400 {
		t.Errorf("dist comps = %d, want 400", res.Stats.DistComps)
	}
	if len(res.IDs) != 5 {
		t.Errorf("got %d ids", len(res.IDs))
	}
}

func TestProfileRecorded(t *testing.T) {
	ds := testData()
	ix := New(ds.Vectors, ds.Spec.Metric, nil)
	var p index.Profile
	ix.Search(ds.Queries.Row(0), 5, index.SearchOptions{Recorder: &p})
	if len(p.Steps) != 1 || p.Steps[0].Work.Dist <= 0 {
		t.Fatalf("profile %+v, want one step of counted work", p.Steps)
	}
	if p.Steps[0].Pages != nil {
		t.Error("memory index recorded I/O")
	}
}

func TestFilter(t *testing.T) {
	ds := testData()
	ix := New(ds.Vectors, ds.Spec.Metric, nil)
	res := ix.Search(ds.Queries.Row(0), 5, index.SearchOptions{
		Filter: func(id int32) bool { return id%2 == 0 },
	})
	for _, id := range res.IDs {
		if id%2 != 0 {
			t.Fatalf("filter leaked id %d", id)
		}
	}
}

func TestExternalIDs(t *testing.T) {
	ds := testData()
	ids := make([]int32, ds.Vectors.Len())
	for i := range ids {
		ids[i] = int32(i) + 1000
	}
	ix := New(ds.Vectors, ds.Spec.Metric, ids)
	res := ix.Search(ds.Queries.Row(0), 3, index.SearchOptions{})
	for _, id := range res.IDs {
		if id < 1000 {
			t.Fatalf("external id mapping lost: %d", id)
		}
	}
}

func TestSizeReporting(t *testing.T) {
	ds := testData()
	ix := New(ds.Vectors, ds.Spec.Metric, nil)
	if ix.MemoryBytes() != 400*24*4 {
		t.Errorf("memory = %d", ix.MemoryBytes())
	}
	if ix.StorageBytes() != 0 {
		t.Errorf("storage = %d", ix.StorageBytes())
	}
	if ix.Name() != "FLAT" || ix.Len() != 400 {
		t.Error("metadata wrong")
	}
}
