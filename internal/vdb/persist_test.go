package vdb

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"svdbench/internal/binenc"
	"svdbench/internal/index"
	"svdbench/internal/vec"
)

func saveLoadRoundTrip(t *testing.T, kind IndexKind, traits Traits, opts index.SearchOptions) {
	t.Helper()
	ds := testDataset(t, 600)
	col, err := NewCollection("p", 32, ds.Spec.Metric, traits, kind, DefaultBuildParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := col.BulkLoad(ds.Vectors, nil); err != nil {
		t.Fatal(err)
	}
	var next int64
	col.AssignStorage(func(n int64) int64 { p := next; next += n; return p })

	path := filepath.Join(t.TempDir(), "col.bin")
	if err := col.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCollection(path, ds.Vectors, traits, DefaultBuildParams())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != col.Len() || len(got.Segments()) != len(col.Segments()) {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", got.Len(), len(got.Segments()), col.Len(), len(col.Segments()))
	}
	next = 0
	got.AssignStorage(func(n int64) int64 { p := next; next += n; return p })
	// Identical search results query for query.
	for qi := 0; qi < 10; qi++ {
		q := ds.Queries.Row(qi)
		a := col.Search(q, 10, opts)
		b := got.Search(q, 10, opts)
		if !reflect.DeepEqual(a.IDs, b.IDs) {
			t.Fatalf("%s query %d: results differ after round trip:\n%v\n%v", kind, qi, a.IDs, b.IDs)
		}
	}
	// Inserts still work after load (nextID restored).
	id, err := got.Insert(ds.Queries.Row(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if int(id) != ds.Vectors.Len() {
		t.Errorf("post-load insert id = %d, want %d", id, ds.Vectors.Len())
	}
}

func TestSaveLoadHNSW(t *testing.T) {
	saveLoadRoundTrip(t, IndexHNSW, Qdrant(), index.SearchOptions{EfSearch: 40})
}

func TestSaveLoadHNSWSegmented(t *testing.T) {
	tr := Milvus()
	tr.SegmentCapacity = 200
	saveLoadRoundTrip(t, IndexHNSW, tr, index.SearchOptions{EfSearch: 40})
}

func TestSaveLoadHNSWSQ(t *testing.T) {
	saveLoadRoundTrip(t, IndexHNSWSQ, LanceDB(), index.SearchOptions{EfSearch: 40})
}

func TestSaveLoadDiskANN(t *testing.T) {
	tr := Milvus()
	tr.SegmentCapacity = 300
	saveLoadRoundTrip(t, IndexDiskANN, tr, index.SearchOptions{SearchList: 20, BeamWidth: 4})
}

func TestSaveLoadIVFFlat(t *testing.T) {
	saveLoadRoundTrip(t, IndexIVFFlat, Milvus(), index.SearchOptions{NProbe: 8})
}

func TestSaveLoadIVFPQ(t *testing.T) {
	saveLoadRoundTrip(t, IndexIVFPQ, LanceDB(), index.SearchOptions{NProbe: 8})
}

func TestLoadRejectsGarbage(t *testing.T) {
	ds := testDataset(t, 300)
	path := filepath.Join(t.TempDir(), "bad.bin")
	if err := os.WriteFile(path, []byte("not a collection"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCollection(path, ds.Vectors, Qdrant(), DefaultBuildParams()); err == nil {
		t.Error("garbage accepted")
	}
}

func TestLoadRejectsDimMismatch(t *testing.T) {
	ds := testDataset(t, 300)
	col, _ := NewCollection("p", 32, ds.Spec.Metric, Qdrant(), IndexHNSW, DefaultBuildParams())
	if err := col.BulkLoad(ds.Vectors, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "col.bin")
	if err := col.Save(path); err != nil {
		t.Fatal(err)
	}
	bad := vec.NewMatrix(10, 16)
	if _, err := LoadCollection(path, bad, Qdrant(), DefaultBuildParams()); err == nil {
		t.Error("dim mismatch accepted")
	}
}

// TestLoadRejectsBadMetric: a saved collection whose metric is unknown, with
// or without segments, or differs from its segments' own metric is refused
// at load; accepted, the first two searched their growing tail under an
// unknown metric, which panics.
func TestLoadRejectsBadMetric(t *testing.T) {
	ds := testDataset(t, 300)
	col, _ := NewCollection("p", 32, vec.Cosine, Qdrant(), IndexHNSW, DefaultBuildParams())
	if err := col.BulkLoad(ds.Vectors, nil); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "col.bin")
	if err := col.Save(path); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The metric follows the magic, the name "p" and the dimension.
	metricAt := len(collectionMagic) + 8 + len("p") + 8
	withMetric := func(m vec.Metric) []byte {
		b := bytes.Clone(saved)
		binary.LittleEndian.PutUint64(b[metricAt:], uint64(m))
		return b
	}
	var empty bytes.Buffer
	w := binenc.NewWriter(&empty)
	w.Magic(collectionMagic)
	w.String("p")
	w.Int(32)
	w.Int(7)
	w.String(string(IndexHNSW))
	w.Int(0)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for name, file := range map[string][]byte{
		"unknown metric":              withMetric(7),
		"unknown metric, no segments": empty.Bytes(),
		"segments of another metric":  withMetric(vec.L2),
	} {
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCollection(path, ds.Vectors, Qdrant(), DefaultBuildParams()); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
