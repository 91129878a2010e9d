package sq

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"svdbench/internal/binenc"
)

func TestQuantizerPersistRoundTrip(t *testing.T) {
	m := randMatrix(200, 16, 9)
	orig, err := Train(m)
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
	for i := 0; i < 20; i++ {
		if !reflect.DeepEqual(orig.Encode(m.Row(i)), got.Encode(m.Row(i))) {
			t.Fatalf("row %d codes differ after round trip", i)
		}
	}
	if got.Dim() != orig.Dim() {
		t.Error("dim mismatch")
	}
}

func TestReadQuantizerRejectsGarbage(t *testing.T) {
	_, err := ReadQuantizer(binenc.NewReader(bytes.NewReader([]byte("x"))))
	if err == nil {
		t.Fatal("garbage accepted")
	}
	if !strings.HasPrefix(err.Error(), "sq: read quantiser: ") || errors.Unwrap(err) == nil {
		t.Errorf("read error %q is not wrapped with its package and step", err)
	}
}

// TestReadQuantizerRejectsCorrupt: every header or codec value Train never
// writes is an error naming the package — short slices, and a non-finite
// minimum or a non-positive or non-finite step in any dimension.
func TestReadQuantizerRejectsCorrupt(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	for _, tc := range []struct {
		name      string
		dim       int
		min, step []float32
	}{
		{"zero dim", 0, nil, nil},
		{"short min", 3, []float32{0, 0}, []float32{1, 1, 1}},
		{"short step", 3, []float32{0, 0, 0}, []float32{1, 1}},
		{"NaN min", 3, []float32{0, nan, 0}, []float32{1, 1, 1}},
		{"+Inf min", 3, []float32{0, 0, inf}, []float32{1, 1, 1}},
		{"-Inf min", 3, []float32{-inf, 0, 0}, []float32{1, 1, 1}},
		{"NaN step", 3, []float32{0, 0, 0}, []float32{1, nan, 1}},
		{"Inf step", 3, []float32{0, 0, 0}, []float32{1, 1, inf}},
		{"zero step", 3, []float32{0, 0, 0}, []float32{0, 1, 1}},
		{"negative step", 3, []float32{0, 0, 0}, []float32{1, -1, 1}},
	} {
		var buf bytes.Buffer
		w := binenc.NewWriter(&buf)
		w.Int(tc.dim)
		w.F32s(tc.min)
		w.F32s(tc.step)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		q, err := ReadQuantizer(binenc.NewReader(&buf))
		if err == nil {
			t.Errorf("%s: accepted (%+v)", tc.name, q)
			continue
		}
		if !strings.HasPrefix(err.Error(), "sq: ") {
			t.Errorf("%s: error %q does not name its package", tc.name, err)
		}
	}
}
