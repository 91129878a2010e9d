package diskann

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"svdbench/internal/binenc"
	"svdbench/internal/index"
	"svdbench/internal/vec"
)

func TestPersistRoundTrip(t *testing.T) {
	ds, orig := shared(t)
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
	if got.medoid != orig.medoid || got.pagesPerNode != orig.pagesPerNode {
		t.Error("metadata mismatch after round trip")
	}
	for qi := 0; qi < 10; qi++ {
		q := ds.Queries.Row(qi)
		a := orig.Search(q, 10, index.SearchOptions{SearchList: 20, BeamWidth: 4})
		b := got.Search(q, 10, index.SearchOptions{SearchList: 20, BeamWidth: 4})
		if !reflect.DeepEqual(a.IDs, b.IDs) {
			t.Fatalf("query %d: %v vs %v", qi, a.IDs, b.IDs)
		}
		if a.Stats != b.Stats {
			t.Fatalf("query %d stats differ: %+v vs %+v", qi, a.Stats, b.Stats)
		}
	}
}

func TestPersistRejectsWrongData(t *testing.T) {
	_, orig := shared(t)
	var buf bytes.Buffer
	w := binenc.NewWriter(&buf)
	orig.WriteTo(w)
	w.Flush()
	if _, err := ReadFrom(binenc.NewReader(&buf), vec.NewMatrix(7, 32), nil); err == nil {
		t.Error("row-count mismatch accepted")
	}
}

func TestPersistRejectsGarbage(t *testing.T) {
	r := binenc.NewReader(bytes.NewReader([]byte("VAMAGARBAGEGARBAGEGARBAGE")))
	if _, err := ReadFrom(r, vec.NewMatrix(1, 4), nil); err == nil {
		t.Error("garbage accepted")
	}
}

// TestPersistRejectsOutOfRangeGraph: the beam kernel indexes by neighbour id
// and medoid unchecked, so a snapshot that damages either must fail at load
// with an error — never load cleanly and panic inside the first Search.
func TestPersistRejectsOutOfRangeGraph(t *testing.T) {
	ds, orig := shared(t)
	var buf bytes.Buffer
	w := binenc.NewWriter(&buf)
	orig.WriteTo(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// VAMA0001 framing: 8-byte magic, eight 8-byte config words (the last is
	// the node count), the 4-byte medoid, then one length-prefixed int32 list
	// per node.
	const medoidOff = 8 + 8*8
	load := func(name string, corrupt func(b []byte)) {
		b := bytes.Clone(buf.Bytes())
		corrupt(b)
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("%s: panicked instead of returning an error: %v", name, p)
			}
		}()
		ix, err := ReadFrom(binenc.NewReader(bytes.NewReader(b)), ds.Vectors, nil)
		if err == nil {
			ix.Search(ds.Queries.Row(0), 10, uncachedOpts())
			t.Errorf("%s: corrupt snapshot accepted", name)
		}
	}
	load("neighbour id out of range", func(b []byte) {
		off := medoidOff + 4
		for i := 0; i < orig.Len(); i++ {
			deg := int(binary.LittleEndian.Uint64(b[off:]))
			if deg > 0 {
				binary.LittleEndian.PutUint32(b[off+8:], 1<<30)
			}
			off += 8 + 4*deg
		}
	})
	load("negative neighbour id", func(b []byte) {
		binary.LittleEndian.PutUint32(b[medoidOff+4+8:], uint32(1<<32-1))
	})
	load("negative medoid", func(b []byte) {
		binary.LittleEndian.PutUint32(b[medoidOff:], uint32(1<<32-7))
	})
}
