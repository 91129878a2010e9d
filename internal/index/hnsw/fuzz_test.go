package hnsw

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"svdbench/internal/binenc"
	"svdbench/internal/dataset"
	"svdbench/internal/index"
	"svdbench/internal/vec"
)

// FuzzReadFrom feeds ReadFrom mutated snapshots (seeded from valid plain and
// SQ ones, whole and truncated). Whatever the bytes, it must not panic, must
// not allocate beyond a small multiple of its input, and must either return
// an error naming the package or an index that can be searched.
func FuzzReadFrom(f *testing.F) {
	ds := dataset.Generate(dataset.Spec{
		Name: "hnsw-fuzz", N: 64, Dim: 8, NumQueries: 1,
		Clusters: 4, Seed: 41, Metric: vec.Cosine, GroundK: 1,
	})
	for _, quantize := range []bool{false, true} {
		ix, err := Build(ds.Vectors, nil, Config{M: 4, EfConstruction: 16, Seed: 3, Metric: ds.Spec.Metric, ScalarQuantize: quantize})
		if err != nil {
			f.Fatal(err)
		}
		snapshot := persistBytes(f, ix)
		f.Add(snapshot)
		f.Add(snapshot[:len(snapshot)/2])
	}
	f.Fuzz(func(t *testing.T, snapshot []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ix, err := ReadFrom(binenc.NewReader(bytes.NewReader(snapshot)), ds.Vectors, nil)
		runtime.ReadMemStats(&after)
		// 1 MiB is the reader's own buffer; decoded structures are a small
		// multiple of the bytes they were decoded from.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4<<20+32*len(snapshot)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(snapshot), got, limit)
		}
		if err != nil {
			if !strings.HasPrefix(err.Error(), "hnsw: ") {
				t.Fatalf("error does not say where it came from: %v", err)
			}
			return
		}
		ix.Search(ds.Queries.Row(0), 5, index.SearchOptions{EfSearch: 16})
	})
}
