package hnsw

import (
	"bytes"
	"encoding/binary"
	"math"
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
		if quantize {
			f.Add(withSQStep(snapshot, ds.Vectors.Len(), ds.Vectors.Dim, 0, float32(math.NaN())))
		}
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

// withSQStep returns a copy of an SQ snapshot of n rows of dimension dim
// whose quantiser step at dimension j is v. The snapshot ends with the step
// slice (length prefix, dim floats) and the length-prefixed codes.
func withSQStep(snapshot []byte, n, dim, j int, v float32) []byte {
	out := bytes.Clone(snapshot)
	off := len(out) - (8 + n*dim) - 4*dim + 4*j
	binary.LittleEndian.PutUint32(out[off:], math.Float32bits(v))
	return out
}

// TestReadFromRejectsBadQuantizer: a snapshot whose SQ step is NaN, zero or
// infinite in any dimension is refused with an error naming the package,
// instead of loading an index whose every distance is NaN.
func TestReadFromRejectsBadQuantizer(t *testing.T) {
	ds := dataset.Generate(dataset.Spec{
		Name: "hnsw-badsq", N: 64, Dim: 8, NumQueries: 1,
		Clusters: 4, Seed: 41, Metric: vec.Cosine, GroundK: 1,
	})
	ix, err := Build(ds.Vectors, nil, Config{M: 4, EfConstruction: 16, Seed: 3, Metric: ds.Spec.Metric, ScalarQuantize: true})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := persistBytes(t, ix)
	if _, err := ReadFrom(binenc.NewReader(bytes.NewReader(snapshot)), ds.Vectors, nil); err != nil {
		t.Fatalf("intact snapshot rejected: %v", err)
	}
	for _, v := range []float32{float32(math.NaN()), 0, float32(math.Inf(1))} {
		bad := withSQStep(snapshot, ds.Vectors.Len(), ds.Vectors.Dim, 5, v)
		_, err := ReadFrom(binenc.NewReader(bytes.NewReader(bad)), ds.Vectors, nil)
		if err == nil || !strings.HasPrefix(err.Error(), "hnsw: sq: ") {
			t.Errorf("step %v: err = %v, want an hnsw-wrapped sq error", v, err)
		}
	}
}
