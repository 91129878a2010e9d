package vdb

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"svdbench/internal/dataset"
	"svdbench/internal/index"
	"svdbench/internal/vec"
)

// FuzzLoadCollection feeds LoadCollection mutated collection files (seeded
// from saved two-segment DiskANN, HNSW and IVF collections, whole and
// truncated) against a small data matrix. Whatever the bytes, it must not
// panic, must not allocate beyond a small multiple of its input, and must
// either return an error naming its package or a collection that can be
// searched.
func FuzzLoadCollection(f *testing.F) {
	ds := dataset.Generate(dataset.Spec{
		Name: "vdb-fuzz", N: 64, Dim: 8, NumQueries: 1,
		Clusters: 4, Seed: 47, Metric: vec.Cosine, GroundK: 1,
	})
	traits := Milvus()
	traits.SegmentCapacity = 32
	traits.SupportedIndexes = []IndexKind{IndexIVFFlat, IndexIVFPQ, IndexHNSW, IndexHNSWSQ, IndexDiskANN}
	params := BuildParams{M: 4, EfConstruction: 8, R: 6, LBuild: 12, Alpha: 1.2, NList: 4, Seed: 5}
	dir := f.TempDir()
	for _, kind := range []IndexKind{IndexDiskANN, IndexHNSW, IndexIVFFlat} {
		col, err := NewCollection("fuzz", ds.Spec.Dim, ds.Spec.Metric, traits, kind, params)
		if err != nil {
			f.Fatal(err)
		}
		if err := col.BulkLoad(ds.Vectors, nil); err != nil {
			f.Fatal(err)
		}
		path := filepath.Join(dir, string(kind)+".col")
		if err := col.Save(path); err != nil {
			f.Fatal(err)
		}
		saved, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(saved)
		f.Add(saved[:len(saved)/2])
	}
	f.Fuzz(func(t *testing.T, saved []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.col")
		if err := os.WriteFile(path, saved, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		col, err := LoadCollection(path, ds.Vectors, traits, params)
		runtime.ReadMemStats(&after)
		// 1 MiB is the reader's own buffer; decoded structures are a small
		// multiple of the bytes they were decoded from.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4<<20+64*len(saved)); got > limit {
			t.Fatalf("loading %d bytes allocated %d (limit %d)", len(saved), got, limit)
		}
		if err != nil {
			if msg := err.Error(); !strings.HasPrefix(msg, "vdb: ") && !strings.HasPrefix(msg, "binenc: ") {
				t.Fatalf("error does not say where it came from: %v", err)
			}
			return
		}
		var next int64
		col.AssignStorage(func(n int64) int64 { p := next; next += n; return p })
		col.Search(ds.Queries.Row(0), 5, index.SearchOptions{SearchList: 10, BeamWidth: 2, EfSearch: 10, NProbe: 2})
	})
}
