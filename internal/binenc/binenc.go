// Package binenc provides the little-endian binary encoding helpers shared
// by the index and collection persistence formats. Writers and readers
// capture the first error and turn subsequent calls into no-ops, so
// serialisation code reads linearly without per-field error checks.
package binenc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Writer encodes values to an underlying stream.
type Writer struct {
	w   *bufio.Writer
	err error
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<20)}
}

// Err returns the first error encountered.
func (w *Writer) Err() error { return w.err }

// Flush flushes buffered output and returns the first error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

func (w *Writer) write(data []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(data)
}

// U64 writes an unsigned 64-bit value.
func (w *Writer) U64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	w.write(buf[:])
}

// I64 writes a signed 64-bit value.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// I32 writes a signed 32-bit value.
func (w *Writer) I32(v int32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(v))
	w.write(buf[:])
}

// Int writes an int as 64 bits.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 writes a float64.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes writes a length-prefixed byte slice.
func (w *Writer) Bytes(b []byte) {
	w.I64(int64(len(b)))
	w.write(b)
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) { w.Bytes([]byte(s)) }

// I32s writes a length-prefixed []int32.
func (w *Writer) I32s(vs []int32) {
	w.I64(int64(len(vs)))
	if w.err != nil {
		return
	}
	buf := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(buf[i*4:], uint32(v))
	}
	w.write(buf)
}

// I64s writes a length-prefixed []int64.
func (w *Writer) I64s(vs []int64) {
	w.I64(int64(len(vs)))
	for _, v := range vs {
		w.I64(v)
	}
}

// F32s writes a length-prefixed []float32.
func (w *Writer) F32s(vs []float32) {
	w.I64(int64(len(vs)))
	if w.err != nil {
		return
	}
	buf := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(v))
	}
	w.write(buf)
}

// Ints writes a length-prefixed []int (as 64-bit each).
func (w *Writer) Ints(vs []int) {
	w.I64(int64(len(vs)))
	for _, v := range vs {
		w.I64(int64(v))
	}
}

// Reader decodes values written by Writer.
type Reader struct {
	r   *bufio.Reader
	err error
	// Limit bounds length prefixes to catch corrupt files (default 1<<31).
	Limit int64
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<20), Limit: 1 << 31}
}

// Err returns the first error encountered.
func (r *Reader) Err() error { return r.err }

func (r *Reader) read(buf []byte) {
	if r.err != nil {
		return
	}
	if _, err := io.ReadFull(r.r, buf); err != nil {
		r.err = fmt.Errorf("binenc: %w", err)
	}
}

// U64 reads an unsigned 64-bit value.
func (r *Reader) U64() uint64 {
	var buf [8]byte
	r.read(buf[:])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// I64 reads a signed 64-bit value.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// I32 reads a signed 32-bit value.
func (r *Reader) I32() int32 {
	var buf [4]byte
	r.read(buf[:])
	if r.err != nil {
		return 0
	}
	return int32(binary.LittleEndian.Uint32(buf[:]))
}

// Int reads an int written with Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// length reads and validates a length prefix.
func (r *Reader) length() int64 {
	n := r.I64()
	if r.err != nil {
		return 0
	}
	if n < 0 || n > r.Limit {
		r.err = fmt.Errorf("binenc: invalid length %d", n)
		return 0
	}
	return n
}

// payload reads the size·n bytes behind a length prefix. A large payload
// grows its buffer as input arrives (doubling from 1 MiB), so a corrupt
// prefix allocates in proportion to the bytes that really remain, never to
// the prefix.
func (r *Reader) payload(size int64) []byte {
	n := size * r.length()
	if r.err != nil {
		return nil
	}
	buf := make([]byte, min(n, 1<<20))
	r.read(buf)
	for have := int64(len(buf)); have < n && r.err == nil; have = int64(len(buf)) {
		buf = append(buf, make([]byte, min(n-have, have))...)
		r.read(buf[have:])
	}
	if r.err != nil {
		return nil
	}
	return buf
}

// Bytes reads a length-prefixed byte slice.
func (r *Reader) Bytes() []byte { return r.payload(1) }

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// I32s reads a length-prefixed []int32.
func (r *Reader) I32s() []int32 {
	buf := r.payload(4)
	if r.err != nil {
		return nil
	}
	out := make([]int32, len(buf)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(buf[i*4:]))
	}
	return out
}

// I64s reads a length-prefixed []int64.
func (r *Reader) I64s() []int64 {
	buf := r.payload(8)
	if r.err != nil {
		return nil
	}
	out := make([]int64, len(buf)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return out
}

// F32s reads a length-prefixed []float32.
func (r *Reader) F32s() []float32 {
	buf := r.payload(4)
	if r.err != nil {
		return nil
	}
	out := make([]float32, len(buf)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
	}
	return out
}

// Ints reads a length-prefixed []int.
func (r *Reader) Ints() []int {
	buf := r.payload(8)
	if r.err != nil {
		return nil
	}
	out := make([]int, len(buf)/8)
	for i := range out {
		out[i] = int(int64(binary.LittleEndian.Uint64(buf[i*8:])))
	}
	return out
}

// Magic writes/checks a fixed file signature.
func (w *Writer) Magic(m string) { w.write([]byte(m)) }

// Magic reads and verifies a fixed file signature.
func (r *Reader) Magic(m string) {
	buf := make([]byte, len(m))
	r.read(buf)
	if r.err == nil && string(buf) != m {
		r.err = fmt.Errorf("binenc: bad magic %q, want %q", buf, m)
	}
}

// MagicOneOf reads a fixed-length signature and returns whichever candidate
// it matches, failing otherwise — the versioned-format dispatch used by
// readers that accept more than one on-disk framing. All candidates must
// share one length.
func (r *Reader) MagicOneOf(ms ...string) string {
	if r.err != nil || len(ms) == 0 {
		return ""
	}
	buf := make([]byte, len(ms[0]))
	r.read(buf)
	if r.err != nil {
		return ""
	}
	for _, m := range ms {
		if string(buf) == m {
			return m
		}
	}
	r.err = fmt.Errorf("binenc: bad magic %q, want one of %q", buf, ms)
	return ""
}
