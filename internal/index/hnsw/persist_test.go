package hnsw

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
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
	if got.maxLevel != orig.maxLevel {
		t.Errorf("max level %d vs %d", got.maxLevel, orig.maxLevel)
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
		// The batched driver plans against the frozen graph and applies each
		// node's edits in item order, so the worker count must not show.
		a, b := snap(4), snap(4)
		if !bytes.Equal(a, b) {
			t.Fatalf("sq=%t: two builds from the same seed persisted different bytes (%d vs %d)", quantize, len(a), len(b))
		}
		for _, procs := range []int{1, 2} {
			if other := snap(procs); !bytes.Equal(a, other) {
				t.Fatalf("sq=%t: builds with 4 workers and %d persisted different bytes (%d vs %d)", quantize, procs, len(a), len(other))
			}
		}
	}
}

var updateSnapshots = flag.Bool("update", false, "rewrite testdata/snapshots.golden")

// TestSnapshotGolden pins the bytes HNSW and HNSW-SQ builds persist, as
// SHA-256 per fixture, for every metric at 768-d and at 37-d (whose d%4 tail
// the kernels fold in separately). The file was recorded on the scalar
// builder; any faster construction must reproduce it without -update. Rows
// are rescaled so L2 and IP see non-unit norms, and every tenth row is
// stored three times, so the heuristic meets exact distance ties.
func TestSnapshotGolden(t *testing.T) {
	var got bytes.Buffer
	for _, dim := range []int{768, 37} {
		n := 600
		if dim == 768 {
			n = 300
		}
		ds := dataset.Generate(dataset.Spec{
			Name: fmt.Sprintf("hnsw-golden-%d", dim), N: n, Dim: dim, NumQueries: 1,
			Clusters: 8, Seed: 17, Metric: vec.Cosine, GroundK: 1,
		})
		for i := 0; i < n; i++ {
			vec.Scale(ds.Vectors.Row(i), 1+float32(i%5)/4)
			if i%10 > 0 && i%10 < 3 {
				ds.Vectors.SetRow(i, ds.Vectors.Row(i-1))
			}
		}
		for _, metric := range []vec.Metric{vec.Cosine, vec.L2, vec.IP} {
			for _, quantize := range []bool{false, true} {
				ix, err := Build(ds.Vectors, nil, Config{M: 8, EfConstruction: 48, Seed: 11, Metric: metric, ScalarQuantize: quantize})
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&got, "%s dim=%d sq=%t sha256=%x\n", metric, dim, quantize, sha256.Sum256(persistBytes(t, ix)))
			}
		}
	}
	path := filepath.Join("testdata", "snapshots.golden")
	if *updateSnapshots {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("snapshots drifted from %s\n--- got\n%s--- want\n%s", path, got.Bytes(), want)
	}
}
