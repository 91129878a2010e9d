package dataset

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// encodeBytes returns the file image of ds.
func encodeBytes(tb testing.TB, ds *Dataset) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := encode(&buf, ds); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func fuzzSpec() Spec {
	return Spec{Name: "f", N: 12, Dim: 3, NumQueries: 2, Clusters: 2, Seed: 1, GroundK: 4}
}

// FuzzDecode: the .ds decoder never panics on arbitrary bytes, allocates in
// proportion to the bytes it is given whatever the header claims, fails with
// an error that names the package, and returns a dataset whose shape matches
// its header.
func FuzzDecode(f *testing.F) {
	file := encodeBytes(f, Generate(fuzzSpec()))
	f.Add(file)
	f.Add(file[:len(file)/2])
	f.Fuzz(func(t *testing.T, file []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ds, err := decode(bytes.NewReader(file), int64(len(file)))
		runtime.ReadMemStats(&after)
		// 1 MiB covers the name (capped there) and readFloats' buffer; the
		// payload is at most a small multiple of the bytes it came from.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2<<20+16*len(file)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(file), got, limit)
		}
		if err != nil {
			if !strings.HasPrefix(err.Error(), "dataset: ") {
				t.Fatalf("error does not say where it came from: %v", err)
			}
			return
		}
		if ds.Vectors.Len() != ds.Spec.N || ds.Queries.Len() != ds.Spec.NumQueries || len(ds.GroundTruth) != ds.Spec.NumQueries {
			t.Fatalf("decoded shape %d×%d, %d queries, %d ground-truth rows disagrees with header %+v",
				ds.Vectors.Len(), ds.Vectors.Dim, ds.Queries.Len(), len(ds.GroundTruth), ds.Spec)
		}
	})
}

// TestReadFileRejectsCorruptHeader: a header whose counts the file cannot
// hold — the 77-byte file claiming 2^30 vectors of 2^20 dimensions that used
// to panic in makeslice — an n·dim product that overflows, an unknown metric
// and a negative ground-truth depth are each refused with an error, so
// LoadOrGenerate regenerates instead of crashing.
func TestReadFileRejectsCorruptHeader(t *testing.T) {
	valid := encodeBytes(t, Generate(fuzzSpec()))
	// The header's eight int64s follow the magic and the 1-byte name.
	hdrAt := len(fileMagic) + 4 + len(fuzzSpec().Name)
	patch := func(field int, v int64) []byte {
		b := bytes.Clone(valid)
		binary.LittleEndian.PutUint64(b[hdrAt+8*field:], uint64(v))
		return b
	}
	huge := patch(0, 1<<30)
	binary.LittleEndian.PutUint64(huge[hdrAt+8:], 1<<20)
	dir := t.TempDir()
	for name, file := range map[string][]byte{
		"2^30 x 2^20 in 77 bytes": huge[:hdrAt+64],
		"n·dim overflows":         patch(1, 1<<62),
		"unknown metric":          patch(6, 7),
		"negative ground-truth":   patch(7, -1),
		"more queries than bytes": patch(2, int64(len(valid))),
	} {
		path := filepath.Join(dir, "x.ds")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFile(path); err == nil || !strings.HasPrefix(err.Error(), "dataset: ") {
			t.Errorf("%s: ReadFile error %v, want a dataset: error", name, err)
		}
	}
}
