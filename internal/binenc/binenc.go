// Package binenc provides the little-endian binary encoding shared by every
// file the harness saves: the dataset cache, the index snapshots and the
// collection files over them. Writers and readers capture the first error
// and turn subsequent calls into no-ops, so serialisation code reads
// linearly without per-field error checks; WriteFile is the one way such a
// file reaches the disk.
package binenc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// chunk bounds the scratch a slice is encoded through or decoded from, and
// the first allocation of a decoded slice, so none is sized by the whole
// slice or by an unchecked length prefix.
const chunk = 64 << 10

// maxLen bounds a length prefix, to catch a corrupt file early.
const maxLen = 1 << 31

// WriteFile stores what encode writes at path atomically: it encodes into a
// temporary file beside path and renames it over path only once encoding,
// flushing and closing have all succeeded. On any failure it removes the
// temporary file, leaves path as it was and returns the error.
func WriteFile(path string, encode func(*Writer) error) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	w := NewWriter(f)
	if err = encode(w); err != nil {
		return err
	}
	if err = w.Flush(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// Writer encodes values to an underlying stream.
type Writer struct {
	w       *bufio.Writer
	err     error
	scratch []byte // the chunk slices are encoded through
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<20), scratch: make([]byte, chunk)}
}

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

// putAll writes vs behind a length prefix, size bytes each, encoding them
// with put a chunk at a time, so a large slice is never copied whole.
func putAll[T any](w *Writer, vs []T, size int, put func(b []byte, vs []T)) {
	w.I64(int64(len(vs)))
	for len(vs) > 0 && w.err == nil {
		n := min(len(vs), chunk/size)
		put(w.scratch, vs[:n])
		w.write(w.scratch[:n*size])
		vs = vs[n:]
	}
}

// I32s writes a length-prefixed []int32.
func (w *Writer) I32s(vs []int32) { putAll(w, vs, 4, putI32s) }

// F32s writes a length-prefixed []float32.
func (w *Writer) F32s(vs []float32) { putAll(w, vs, 4, putF32s) }

// Ints writes a length-prefixed []int (as 64-bit each).
func (w *Writer) Ints(vs []int) { putAll(w, vs, 8, putInts) }

// The chunk encoders and decoders are named functions: handed to putAll as
// a func literal, the float32 encoder ran 2.3× slower (1 M floats, x86-64).

func putI32s(b []byte, vs []int32) {
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
}

func putF32s(b []byte, vs []float32) {
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
}

func putInts(b []byte, vs []int) {
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
}

func getBytes(dst []byte, b []byte) { copy(dst, b) }

func getI32s(dst []int32, b []byte) {
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
}

func getF32s(dst []float32, b []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
}

func getInts(dst []int, b []byte) {
	for i := range dst {
		dst[i] = int(int64(binary.LittleEndian.Uint64(b[8*i:])))
	}
}

// Reader decodes values written by Writer.
type Reader struct {
	r       *bufio.Reader
	err     error
	scratch []byte // the chunk slices are decoded from
	left    int64  // bytes of a regular file not yet read; -1 when unknown
}

// NewReader wraps r. Over a regular file it learns the file's size, so a
// slice whose length prefix the rest of the file can hold is allocated
// once at its full length.
func NewReader(r io.Reader) *Reader {
	rd := &Reader{r: bufio.NewReaderSize(r, 1<<20), scratch: make([]byte, chunk), left: -1}
	if f, ok := r.(*os.File); ok {
		if info, err := f.Stat(); err == nil && info.Mode().IsRegular() {
			rd.left = info.Size()
		}
	}
	return rd
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
	r.left -= int64(len(buf))
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
	if n < 0 || n > maxLen {
		r.err = fmt.Errorf("binenc: invalid length %d", n)
		return 0
	}
	return n
}

// getAll reads the elements behind a length prefix, size bytes each,
// decoding them with get a chunk at a time. Unless the file is known to
// hold them, the result grows by doubling from one chunk as the bytes
// arrive, so a corrupt prefix allocates in proportion to the bytes that
// really follow it, never to the prefix; and a large slice is never held
// twice, as bytes and decoded.
func getAll[T any](r *Reader, size int, get func(dst []T, b []byte)) []T {
	n := r.length()
	if r.err != nil {
		return nil
	}
	first := min(n, int64(chunk/size))
	if n*int64(size) <= r.left {
		first = n
	}
	out := make([]T, 0, first)
	for have := 0; int64(have) < n; have = len(out) {
		k := int(min(n-int64(have), int64(chunk/size)))
		r.read(r.scratch[:k*size])
		if r.err != nil {
			return nil
		}
		if have+k > cap(out) {
			out = slices.Grow(out, int(min(n-int64(have), int64(have))))
		}
		out = out[:have+k]
		get(out[have:], r.scratch)
	}
	return out
}

// Bytes reads a length-prefixed byte slice.
func (r *Reader) Bytes() []byte { return getAll(r, 1, getBytes) }

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// I32s reads a length-prefixed []int32.
func (r *Reader) I32s() []int32 { return getAll(r, 4, getI32s) }

// F32s reads a length-prefixed []float32.
func (r *Reader) F32s() []float32 { return getAll(r, 4, getF32s) }

// Ints reads a length-prefixed []int.
func (r *Reader) Ints() []int { return getAll(r, 8, getInts) }

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
