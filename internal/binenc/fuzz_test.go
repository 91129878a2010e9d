package binenc

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// fuzzMagic and fuzzMagicAlt are the signatures the fuzzed Magic and
// MagicOneOf calls check for; MagicOneOf needs candidates of one length.
const (
	fuzzMagic    = "BINENC01"
	fuzzMagicAlt = "BINENC02"
)

// readOp performs the Reader call op selects and returns the size in bytes
// of what it returned (0 for scalars and signatures).
func readOp(r *Reader, op byte) int {
	switch op % 10 {
	case 0:
		r.U64()
	case 1:
		r.I32()
	case 2:
		return len(r.Bytes())
	case 3:
		return len(r.String())
	case 4:
		return 4 * len(r.I32s())
	case 5:
		return 8 * len(r.I64s())
	case 6:
		return 4 * len(r.F32s())
	case 7:
		return strconv.IntSize / 8 * len(r.Ints())
	case 8:
		r.Magic(fuzzMagic)
	case 9:
		r.MagicOneOf(fuzzMagic, fuzzMagicAlt)
	}
	return 0
}

// FuzzReader drives a Reader over arbitrary bytes with a fuzz-chosen
// sequence of calls: it never panics, never returns a slice larger in bytes
// than its whole input, whatever a length prefix claims, and fails only with
// an error that names the package.
func FuzzReader(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Magic(fuzzMagic)
	w.U64(7)
	w.I32(-3)
	w.Bytes([]byte("payload"))
	w.String("name")
	w.I32s([]int32{1, -2, 3})
	w.I64s([]int64{4, -5})
	w.F32s([]float32{0.5, -1.5})
	w.Ints([]int{6, 7, 8})
	w.Magic(fuzzMagicAlt)
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	stream := buf.Bytes()
	ops := []byte{8, 0, 1, 2, 3, 4, 5, 6, 7, 9}
	f.Add(ops, stream)
	f.Add(ops, stream[:len(stream)/2])
	f.Add([]byte{2, 2, 2}, []byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, ops, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for i, op := range ops {
			if got := readOp(r, op); got > len(data) {
				t.Fatalf("call %d (op %d) returned %d bytes from a %d-byte input", i, op%10, got, len(data))
			}
		}
		if err := r.Err(); err != nil && !strings.HasPrefix(err.Error(), "binenc: ") {
			t.Fatalf("error does not say where it came from: %v", err)
		}
	})
}
