package pq

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"svdbench/internal/binenc"
	"svdbench/internal/index/kmeans"
	"svdbench/internal/vec"
)

func TestQuantizerPersistRoundTrip(t *testing.T) {
	m := randMatrix(400, 32, 77)
	orig, err := Train(m, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := binenc.NewWriter(&buf)
	orig.WriteTo(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadQuantizer(binenc.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.M() != orig.M() || got.Dim() != orig.Dim() {
		t.Errorf("shape mismatch: %d/%d vs %d/%d", got.M(), got.Dim(), orig.M(), orig.Dim())
	}
	for i := 0; i < 20; i++ {
		a, b := orig.Encode(m.Row(i)), got.Encode(m.Row(i))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("row %d codes differ after round trip", i)
		}
	}
	// ADC tables must be identical.
	ta := orig.BuildTable(m.Row(0))
	tb := got.BuildTable(m.Row(0))
	if !reflect.DeepEqual(ta, tb) {
		t.Error("ADC tables differ after round trip")
	}
}

func TestReadQuantizerRejectsGarbage(t *testing.T) {
	if _, err := ReadQuantizer(binenc.NewReader(bytes.NewReader([]byte("nope")))); err == nil {
		t.Error("garbage accepted")
	}
	// Header with inconsistent dims.
	var buf bytes.Buffer
	w := binenc.NewWriter(&buf)
	w.Int(16) // dim
	w.Int(3)  // m (16 % 3 != 0 → dim != m*subDim)
	w.Int(4)  // subDim
	w.Int(10) // ksub
	w.Flush()
	if _, err := ReadQuantizer(binenc.NewReader(&buf)); err == nil {
		t.Error("inconsistent header accepted")
	}
}

// refCodebooks re-runs Train's sub-space k-means and returns the row-major
// centroid matrices the lane blocks were packed from: the layout the
// persisted bytes have always held.
func refCodebooks(training *vec.Matrix, m int, seed int64) []*vec.Matrix {
	subDim, n := training.Dim/m, training.Len()
	sample := min(n, 20_000)
	idx := rand.New(rand.NewSource(seed)).Perm(n)[:sample]
	cbs := make([]*vec.Matrix, m)
	for s := range cbs {
		sub := vec.NewMatrix(sample, subDim)
		for i, row := range idx {
			copy(sub.Row(i), training.Row(row)[s*subDim:(s+1)*subDim])
		}
		cbs[s] = kmeans.Run(sub, kmeans.Config{K: centroidsPerSub, MaxIter: 8, Seed: seed + int64(s)}).Centroids
	}
	return cbs
}

// TestWriteToIsRowMajor: the lane-block quantiser persists the bytes of a
// writer over the row-major codebooks, at 256 centroids and under-trained
// (17, a padded lane block), with and without a sub-dim tail; a loaded
// quantiser's ADC table is the trained one's and the row-major scalar
// table, bit for bit.
func TestWriteToIsRowMajor(t *testing.T) {
	for _, shape := range []struct{ n, dim, m int }{{400, 32, 8}, {17, 30, 5}, {300, 12, 4}} {
		data := randMatrix(shape.n, shape.dim, int64(shape.n))
		quant, err := Train(data, shape.m, 3)
		if err != nil {
			t.Fatal(err)
		}
		var got, want bytes.Buffer
		w := binenc.NewWriter(&got)
		quant.WriteTo(w)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		ref := refCodebooks(data, shape.m, 3)
		w = binenc.NewWriter(&want)
		w.Int(quant.dim)
		w.Int(quant.m)
		w.Int(quant.subDim)
		w.Int(ref[0].Len())
		for _, cb := range ref {
			w.F32s(cb.Raw())
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("n=%d dim=%d m=%d: WriteTo bytes differ from the row-major writer's", shape.n, shape.dim, shape.m)
		}
		loaded, err := ReadQuantizer(binenc.NewReader(&got))
		if err != nil {
			t.Fatal(err)
		}
		query := randMatrix(1, shape.dim, 5).Row(0)
		trained, reloaded := quant.BuildTable(query), loaded.BuildTable(query)
		subDim := quant.subDim
		for s, cb := range ref {
			for c := 0; c < cb.Len(); c++ {
				i := s*centroidsPerSub + c
				scalar := vec.L2Sq(query[s*subDim:(s+1)*subDim], cb.Row(c))
				if b := math.Float32bits(scalar); math.Float32bits(trained[i]) != b || math.Float32bits(reloaded[i]) != b {
					t.Fatalf("n=%d dim=%d m=%d: entry (%d, %d) trained %v, loaded %v, row-major scalar %v", shape.n, shape.dim, shape.m, s, c, trained[i], reloaded[i], scalar)
				}
			}
		}
	}
}
