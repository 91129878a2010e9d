package ivf

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"svdbench/internal/binenc"
	"svdbench/internal/dataset"
	"svdbench/internal/index"
	"svdbench/internal/index/pq"
	"svdbench/internal/vec"
)

// fuzzData is the small dataset the snapshot tests build over.
func fuzzData() *dataset.Dataset {
	return dataset.Generate(dataset.Spec{
		Name: "ivf-fuzz", N: 64, Dim: 8, NumQueries: 1,
		Clusters: 4, Seed: 47, Metric: vec.Cosine, GroundK: 1,
	})
}

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

// buildSnapshot builds an IVF_FLAT or IVF_PQ index over ds for the snapshot
// tests.
func buildSnapshot(t testing.TB, ds *dataset.Dataset, usePQ bool) *Index {
	t.Helper()
	ix, err := Build(ds.Vectors, nil, Config{NList: 4, Metric: ds.Spec.Metric, Seed: 3, PQ: usePQ, PQM: 2})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// FuzzReadFrom feeds ReadFrom mutated snapshots (seeded from valid IVF_FLAT
// and IVF_PQ ones, whole and halved). Whatever the bytes, it must not panic,
// must not allocate beyond a small multiple of its input, and must either
// return an error naming the package or an index that can be laid out on
// storage and searched.
func FuzzReadFrom(f *testing.F) {
	ds := fuzzData()
	for _, usePQ := range []bool{false, true} {
		snapshot := persistBytes(f, buildSnapshot(f, ds, usePQ))
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
			if !strings.HasPrefix(err.Error(), "ivf: ") {
				t.Fatalf("error does not say where it came from: %v", err)
			}
			return
		}
		var next int64
		ix.AssignPages(func(n int64) int64 { p := next; next += n; return p })
		ix.Search(ds.Queries.Row(0), 5, index.SearchOptions{NProbe: 2})
	})
}

// TestReadFromRejectsCorrupt: snapshots that decode but would panic in the
// first search — a posting-list row outside the data, data of another
// dimension than the centroids, an unknown metric, a PQ quantiser of another
// dimension, a code block of the wrong length — are refused with an error
// naming the package.
func TestReadFromRejectsCorrupt(t *testing.T) {
	ds := fuzzData()
	other, err := pq.Train(vec.NewMatrix(16, 16), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		usePQ  bool
		damage func(ix *Index)
		data   *vec.Matrix
	}{
		{name: "row 2^20", damage: func(ix *Index) { ix.lists[1][0] = 1 << 20 }},
		{name: "row 2^20 pq", usePQ: true, damage: func(ix *Index) { ix.lists[1][0] = 1 << 20 }},
		{name: "negative row", damage: func(ix *Index) { ix.lists[0][0] = -1 }},
		{name: "row listed twice", damage: func(ix *Index) { ix.lists[0][0] = ix.lists[1][0] }},
		{name: "data of another dimension", data: vec.NewMatrix(64, 16)},
		{name: "unknown metric", damage: func(ix *Index) { ix.cfg.Metric = 7 }},
		{name: "page size 0", usePQ: true, damage: func(ix *Index) { ix.cfg.PageSize = 0 }},
		{name: "pq of another dimension", usePQ: true, damage: func(ix *Index) { ix.quantizer = other }},
		{name: "short code block", usePQ: true, damage: func(ix *Index) { ix.codes = ix.codes[:len(ix.codes)-1] }},
	} {
		ix := buildSnapshot(t, ds, tc.usePQ)
		if tc.damage != nil {
			tc.damage(ix)
		}
		data := ds.Vectors
		if tc.data != nil {
			data = tc.data
		}
		_, err := ReadFrom(binenc.NewReader(bytes.NewReader(persistBytes(t, ix))), data, nil)
		if err == nil || !strings.HasPrefix(err.Error(), "ivf: ") {
			t.Errorf("%s: err = %v, want an error naming the package", tc.name, err)
		}
	}
	for _, usePQ := range []bool{false, true} {
		if _, err := ReadFrom(binenc.NewReader(bytes.NewReader(persistBytes(t, buildSnapshot(t, ds, usePQ)))), ds.Vectors, nil); err != nil {
			t.Errorf("pq=%t: intact snapshot rejected: %v", usePQ, err)
		}
	}
}
