package hnsw

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"svdbench/internal/binenc"
	"svdbench/internal/dataset"
	"svdbench/internal/index"
	"svdbench/internal/vec"
)

// persistBytes serialises ix and returns the snapshot bytes.
func persistBytes(t testing.TB, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := binenc.NewWriter(&buf)
	ix.WriteTo(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func roundTrip(t *testing.T, cfg Config) {
	t.Helper()
	ds := dataset.Generate(dataset.Spec{
		Name: "hnsw-persist", N: 500, Dim: 24, NumQueries: 10,
		Clusters: 8, Seed: 31, Metric: vec.Cosine, GroundK: 10,
	})
	cfg.Metric = ds.Spec.Metric
	orig, err := Build(ds.Vectors, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrom(binenc.NewReader(bytes.NewReader(persistBytes(t, orig))), ds.Vectors, nil)
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 10; qi++ {
		q := ds.Queries.Row(qi)
		a := orig.Search(q, 5, index.SearchOptions{EfSearch: 30})
		b := got.Search(q, 5, index.SearchOptions{EfSearch: 30})
		if !reflect.DeepEqual(a.IDs, b.IDs) {
			t.Fatalf("query %d: %v vs %v", qi, a.IDs, b.IDs)
		}
	}
	if got.MaxLevel() != orig.MaxLevel() {
		t.Errorf("max level %d vs %d", got.MaxLevel(), orig.MaxLevel())
	}
}

func TestPersistRoundTrip(t *testing.T) {
	roundTrip(t, Config{M: 8, EfConstruction: 60, Seed: 5})
}

func TestPersistRoundTripSQ(t *testing.T) {
	roundTrip(t, Config{M: 8, EfConstruction: 60, Seed: 5, ScalarQuantize: true})
}

func TestPersistRejectsWrongData(t *testing.T) {
	ds := dataset.Generate(dataset.Spec{
		Name: "hnsw-persist2", N: 200, Dim: 16, NumQueries: 5,
		Clusters: 4, Seed: 32, Metric: vec.Cosine, GroundK: 5,
	})
	ix, _ := Build(ds.Vectors, nil, Config{M: 8, Metric: ds.Spec.Metric, Seed: 1})
	var buf bytes.Buffer
	w := binenc.NewWriter(&buf)
	ix.WriteTo(w)
	w.Flush()
	// Wrong row count must be rejected.
	if _, err := ReadFrom(binenc.NewReader(&buf), vec.NewMatrix(100, 16), nil); err == nil {
		t.Error("row-count mismatch accepted")
	}
}

func TestPersistRejectsGarbage(t *testing.T) {
	r := binenc.NewReader(bytes.NewReader([]byte("garbage garbage garbage")))
	if _, err := ReadFrom(r, vec.NewMatrix(1, 4), nil); err == nil {
		t.Error("garbage accepted")
	}
}

// TestSnapshotByteIdentical is the behavioral property the mapiter analyzer
// guards: two independent builds from the same (seed, config) must persist
// to exactly the same bytes, or the scheduler's deterministic merge and the
// collection cache break.
func TestSnapshotByteIdentical(t *testing.T) {
	ds := dataset.Generate(dataset.Spec{
		Name: "hnsw-det", N: 500, Dim: 24, NumQueries: 10,
		Clusters: 8, Seed: 31, Metric: vec.Cosine, GroundK: 10,
	})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, quantize := range []bool{false, true} {
		snap := func(procs int) []byte {
			runtime.GOMAXPROCS(procs)
			ix, err := Build(ds.Vectors, nil, Config{M: 8, EfConstruction: 60, Seed: 5, Metric: ds.Spec.Metric, ScalarQuantize: quantize})
			if err != nil {
				t.Fatal(err)
			}
			return persistBytes(t, ix)
		}
		// The batched driver plans against the frozen graph and applies in
		// order, so the worker count must not show either.
		a, b, one := snap(4), snap(4), snap(1)
		if !bytes.Equal(a, b) {
			t.Fatalf("sq=%t: two builds from the same seed persisted different bytes (%d vs %d)", quantize, len(a), len(b))
		}
		if !bytes.Equal(a, one) {
			t.Fatalf("sq=%t: builds with 4 workers and 1 worker persisted different bytes (%d vs %d)", quantize, len(a), len(one))
		}
	}
}
