package ivf

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

func persistRoundTrip(t *testing.T, cfg Config) {
	t.Helper()
	ds := testData(t)
	cfg.Metric = ds.Spec.Metric
	cfg.Seed = 1
	orig, err := Build(ds.Vectors, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := binenc.NewWriter(&buf)
	orig.WriteTo(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrom(binenc.NewReader(&buf), ds.Vectors, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.NList() != orig.NList() {
		t.Errorf("nlist %d vs %d", got.NList(), orig.NList())
	}
	for qi := 0; qi < 10; qi++ {
		q := ds.Queries.Row(qi)
		a := orig.Search(q, 10, index.SearchOptions{NProbe: 8})
		b := got.Search(q, 10, index.SearchOptions{NProbe: 8})
		if !reflect.DeepEqual(a.IDs, b.IDs) {
			t.Fatalf("query %d: %v vs %v", qi, a.IDs, b.IDs)
		}
	}
}

func TestPersistRoundTripFlat(t *testing.T) {
	persistRoundTrip(t, Config{})
}

func TestPersistRoundTripPQ(t *testing.T) {
	persistRoundTrip(t, Config{PQ: true, PQM: 8})
}

func TestPersistRejectsGarbage(t *testing.T) {
	r := binenc.NewReader(bytes.NewReader([]byte("IVFXGARBAGEGARBAGE")))
	if _, err := ReadFrom(r, vec.NewMatrix(1, 4), nil); err == nil {
		t.Error("garbage accepted")
	}
}

func TestPersistRejectsWrongData(t *testing.T) {
	ds := testData(t)
	orig, _ := Build(ds.Vectors, nil, Config{Metric: ds.Spec.Metric, Seed: 1})
	var buf bytes.Buffer
	w := binenc.NewWriter(&buf)
	orig.WriteTo(w)
	w.Flush()
	if _, err := ReadFrom(binenc.NewReader(&buf), vec.NewMatrix(3, 32), nil); err == nil {
		t.Error("row-count mismatch accepted")
	}
}

// TestSnapshotByteIdentical is the behavioral property the mapiter analyzer
// guards: two independent builds from the same (seed, config) must persist
// to exactly the same bytes, or the scheduler's deterministic merge and the
// collection cache break.
func TestSnapshotByteIdentical(t *testing.T) {
	ds := testData(t)
	snap := func() []byte {
		ix, err := Build(ds.Vectors, nil, Config{Metric: ds.Spec.Metric, Seed: 1, PQ: true, PQM: 8})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		w := binenc.NewWriter(&buf)
		ix.WriteTo(w)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := snap(), snap()
	if !bytes.Equal(a, b) {
		t.Fatalf("two builds from the same seed persisted different bytes (%d vs %d)", len(a), len(b))
	}
}

var updateSnapshots = flag.Bool("update", false, "rewrite testdata/snapshots.golden")

// TestSnapshotGolden pins the bytes IVF_FLAT and IVF_PQ builds persist, as
// SHA-256 per fixture, for every metric at two sizes and at GOMAXPROCS 1, 2
// and 4: 768-d with the default m (sub-dim 8, 256 centroids per sub-space)
// and 40-d with m = 4 on 200 rows (sub-dim 10, whose d%4 tail the kernels
// fold in separately, and 200 centroids per sub-space). Rows are rescaled so
// L2 and IP see non-unit norms, and every tenth row is stored three times, so
// k-means meets exact distance ties. Any faster k-means or PQ training must
// reproduce the file without -update.
func TestSnapshotGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var got bytes.Buffer
	for _, size := range []struct{ n, dim, pqm int }{{300, 768, 0}, {200, 40, 4}} {
		ds := dataset.Generate(dataset.Spec{
			Name: fmt.Sprintf("ivf-golden-%d", size.dim), N: size.n, Dim: size.dim, NumQueries: 1,
			Clusters: 8, Seed: 17, Metric: vec.Cosine, GroundK: 1,
		})
		for i := 0; i < size.n; i++ {
			vec.Scale(ds.Vectors.Row(i), 1+float32(i%5)/4)
			if i%10 > 0 && i%10 < 3 {
				ds.Vectors.SetRow(i, ds.Vectors.Row(i-1))
			}
		}
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for _, metric := range []vec.Metric{vec.Cosine, vec.L2, vec.IP} {
				for _, quantize := range []bool{false, true} {
					ix, err := Build(ds.Vectors, nil, Config{Metric: metric, Seed: 11, PQ: quantize, PQM: size.pqm})
					if err != nil {
						t.Fatal(err)
					}
					var buf bytes.Buffer
					w := binenc.NewWriter(&buf)
					ix.WriteTo(w)
					if err := w.Flush(); err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&got, "procs=%d %s dim=%d pq=%t sha256=%x\n", procs, metric, size.dim, quantize, sha256.Sum256(buf.Bytes()))
				}
			}
		}
	}
	path := filepath.Join("testdata", "snapshots.golden")
	if *updateSnapshots {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
