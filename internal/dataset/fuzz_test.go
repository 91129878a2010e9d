package dataset

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"svdbench/internal/vec"
)

// encodeBytes returns the file image of ds.
func encodeBytes(tb testing.TB, ds *Dataset) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "x.ds")
	if err := WriteFile(path, ds); err != nil {
		tb.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return file
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
		ds, err := decode(bytes.NewReader(file))
		runtime.ReadMemStats(&after)
		// 1 MiB covers the reader's buffer and a payload's first chunk; the
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
// hold — an 81-byte file claiming 2^30 vectors of 2^20 dimensions, the
// shape that once panicked in makeslice — an n·dim product that overflows,
// an unknown metric, a negative ground-truth depth and more queries than
// the file has bytes are each refused with an error, so LoadOrGenerate
// regenerates instead of crashing.
func TestReadFileRejectsCorruptHeader(t *testing.T) {
	valid := encodeBytes(t, Generate(fuzzSpec()))
	// The header's eight 64-bit fields follow the magic and the name's
	// 8-byte length prefix and one byte.
	hdrAt := len(fileMagic) + 8 + len(fuzzSpec().Name)
	patch := func(field int, v int64) []byte {
		b := bytes.Clone(valid)
		binary.LittleEndian.PutUint64(b[hdrAt+8*field:], uint64(v))
		return b
	}
	huge := patch(0, 1<<30)
	binary.LittleEndian.PutUint64(huge[hdrAt+8:], 1<<20)
	dir := t.TempDir()
	for name, file := range map[string][]byte{
		"2^30 x 2^20 in 81 bytes": huge[:hdrAt+64],
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

// TestLoadOrGenerateReplacesOldFormat: a cache file in the previous format
// (magic SVDBDS01) is refused, and LoadOrGenerate regenerates the dataset
// and writes the current format over it.
func TestLoadOrGenerateReplacesOldFormat(t *testing.T) {
	dir := t.TempDir()
	spec := fuzzSpec()
	path := CachePath(dir, spec)
	old := append([]byte("SVDBDS01"), encodeBytes(t, Generate(spec))[len(fileMagic):]...)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil || !strings.HasPrefix(err.Error(), "dataset: ") {
		t.Fatalf("ReadFile of an SVDBDS01 file: error %v, want a dataset: error", err)
	}
	ds, err := LoadOrGenerate(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ds.Vectors.Raw(), Generate(spec).Vectors.Raw()) {
		t.Error("LoadOrGenerate over an SVDBDS01 file returned other data than Generate")
	}
	if _, err := ReadFile(path); err != nil {
		t.Errorf("the regenerated cache file does not read back: %v", err)
	}
}

// TestLoadOrGenerateServesOnlyItsOwnSpec: specs that differ only in their
// metric (ground truths ranked under different distances) or in their
// spread by less than 0.01 (different vectors) each get their own cache
// file and their own data back.
func TestLoadOrGenerateServesOnlyItsOwnSpec(t *testing.T) {
	for name, change := range map[string]func(*Spec){
		"metric": func(s *Spec) { s.Metric = vec.Cosine },
		"spread": func(s *Spec) { s.Spread = 0.909 },
	} {
		dir := t.TempDir()
		first, second := fuzzSpec(), fuzzSpec()
		first.Spread = 0.901
		second.Spread = first.Spread
		change(&second)
		if _, err := LoadOrGenerate(dir, first); err != nil {
			t.Fatal(err)
		}
		got, err := LoadOrGenerate(dir, second)
		if err != nil {
			t.Fatal(err)
		}
		want := Generate(second)
		if got.Spec != second || !slices.Equal(got.Vectors.Raw(), want.Vectors.Raw()) || !reflect.DeepEqual(got.GroundTruth, want.GroundTruth) {
			t.Errorf("%s: LoadOrGenerate served the other spec's cache file (%+v)", name, got.Spec)
		}
	}
}
