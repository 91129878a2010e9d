package hnsw

import (
	"reflect"
	"testing"

	"svdbench/internal/dataset"
	"svdbench/internal/index"
	"svdbench/internal/vec"
)

// TestScratchReuseIdentity: one scratch reused across every query, with two
// dsts taken in turn, must reproduce the fresh-scratch search exactly — ids,
// distances, stats, and the recorded execution — and leave the previous
// query's result as it was.
func TestScratchReuseIdentity(t *testing.T) {
	ds := testData(t)
	ix, err := Build(ds.Vectors, nil, Config{M: 16, EfConstruction: 100, Metric: ds.Spec.Metric, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	scr := index.NewSearchScratch()
	var dsts [2]index.Result
	var prev index.Result
	for qi := 0; qi < ds.Queries.Len(); qi++ {
		q := ds.Queries.Row(qi)
		dst := &dsts[qi%2]
		var baseProf, prof index.Profile
		base := ix.Search(q, 10, index.SearchOptions{EfSearch: 40, Recorder: &baseProf})
		ix.SearchInto(q, 10, index.SearchOptions{EfSearch: 40, Recorder: &prof, Scratch: scr}, dst)
		if !reflect.DeepEqual(base.IDs, dst.IDs) || !reflect.DeepEqual(base.Dists, dst.Dists) {
			t.Fatalf("query %d: reused scratch changed results", qi)
		}
		if base.Stats != dst.Stats {
			t.Fatalf("query %d: stats differ: %+v vs %+v", qi, base.Stats, dst.Stats)
		}
		if !reflect.DeepEqual(baseProf.Steps, prof.Steps) {
			t.Fatalf("query %d: recorded execution differs under scratch reuse", qi)
		}
		if last := dsts[(qi+1)%2]; qi > 0 && (!reflect.DeepEqual(prev.IDs, last.IDs) || !reflect.DeepEqual(prev.Dists, last.Dists)) {
			t.Fatalf("query %d changed query %d's result: SearchInto's result aliases the scratch", qi, qi-1)
		}
		prev = base
	}
}

// TestSearchSteadyStateZeroAlloc: with a reused scratch and dst and no
// recorder, a steady-state in-memory HNSW query performs zero heap
// allocations.
func TestSearchSteadyStateZeroAlloc(t *testing.T) {
	ds := testData(t)
	ix, err := Build(ds.Vectors, nil, Config{M: 16, EfConstruction: 100, Metric: ds.Spec.Metric, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := index.SearchOptions{EfSearch: 40, Scratch: index.NewSearchScratch()}
	var dst index.Result
	for qi := 0; qi < ds.Queries.Len(); qi++ {
		ix.SearchInto(ds.Queries.Row(qi), 10, opts, &dst)
	}
	qi := 0
	allocs := testing.AllocsPerRun(20, func() {
		ix.SearchInto(ds.Queries.Row(qi%ds.Queries.Len()), 10, opts, &dst)
		qi++
	})
	if allocs != 0 {
		t.Fatalf("steady-state search allocates %.1f times per query, want 0", allocs)
	}
}

// benchData is the serve-mono shape of the layered benchmark (the same 500
// clustered 768-d cosine vectors DiskANN's BenchmarkBuild500x768 builds),
// with the collection's default HNSW parameters.
func benchData() (*dataset.Dataset, Config) {
	ds := dataset.Generate(dataset.Spec{
		Name: "diskann-bench", N: 500, Dim: 768, NumQueries: 200,
		Clusters: 64, Spread: 0.9, Seed: 1, Metric: vec.Cosine, GroundK: 10,
	})
	return ds, Config{M: 16, EfConstruction: 200, Metric: vec.Cosine, Seed: 1}
}

// BenchmarkBuild500x768 times one full build: level sampling, the batched
// candidate searches, heuristic selection and back-linking.
func BenchmarkBuild500x768(b *testing.B) {
	ds, cfg := benchData()
	benchBuild(b, ds, cfg)
}

// BenchmarkBuildSQ500x768 is BenchmarkBuild500x768 for HNSW-SQ: training and
// encoding, then the same build scored over the codes.
func BenchmarkBuildSQ500x768(b *testing.B) {
	ds, cfg := benchData()
	cfg.ScalarQuantize = true
	benchBuild(b, ds, cfg)
}

func benchBuild(b *testing.B, ds *dataset.Dataset, cfg Config) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(ds.Vectors, nil, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
