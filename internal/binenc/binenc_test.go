package binenc

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

func TestRoundTripAllTypes(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Magic("TEST01")
	w.U64(42)
	w.I64(-7)
	w.I32(-100000)
	w.Int(123456789)
	w.F64(3.25)
	w.Bytes([]byte{1, 2, 3})
	w.String("hello")
	w.I32s([]int32{-1, 0, 1})
	w.F32s([]float32{1.5, -2.5})
	w.Ints([]int{9, 8, 7})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	r.Magic("TEST01")
	if got := r.U64(); got != 42 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -7 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.I32(); got != -100000 {
		t.Errorf("I32 = %d", got)
	}
	if got := r.Int(); got != 123456789 {
		t.Errorf("Int = %d", got)
	}
	if got := r.F64(); got != 3.25 {
		t.Errorf("F64 = %v", got)
	}
	if got := r.Bytes(); !reflect.DeepEqual(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := r.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if got := r.I32s(); !reflect.DeepEqual(got, []int32{-1, 0, 1}) {
		t.Errorf("I32s = %v", got)
	}
	if got := r.F32s(); !reflect.DeepEqual(got, []float32{1.5, -2.5}) {
		t.Errorf("F32s = %v", got)
	}
	if got := r.Ints(); !reflect.DeepEqual(got, []int{9, 8, 7}) {
		t.Errorf("Ints = %v", got)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestEmptySlices(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.I32s(nil)
	w.F32s([]float32{})
	w.Flush()
	r := NewReader(&buf)
	if got := r.I32s(); len(got) != 0 {
		t.Errorf("nil I32s = %v", got)
	}
	if got := r.F32s(); len(got) != 0 {
		t.Errorf("empty F32s = %v", got)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestBadMagic(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Magic("AAAA")
	w.Flush()
	r := NewReader(&buf)
	r.Magic("BBBB")
	if r.Err() == nil {
		t.Error("bad magic accepted")
	}
}

func TestTruncatedInput(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.F32s(make([]float32, 100))
	w.Flush()
	raw := buf.Bytes()[:50] // cut mid-payload
	r := NewReader(bytes.NewReader(raw))
	r.F32s()
	if r.Err() == nil {
		t.Error("truncated input accepted")
	}
}

func TestCorruptLengthRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.I64(-5) // bogus negative length
	w.Flush()
	r := NewReader(&buf)
	r.Bytes()
	if r.Err() == nil {
		t.Error("negative length accepted")
	}

	var buf2 bytes.Buffer
	w2 := NewWriter(&buf2)
	w2.I64(1 << 40) // absurd length
	w2.Flush()
	r2 := NewReader(&buf2)
	r2.Bytes()
	if r2.Err() == nil {
		t.Error("oversized length accepted")
	}
}

// TestLengthPrefixCannotOutgrowInput: a prefix inside the limit but far past
// the bytes that remain fails having allocated in proportion to the input,
// not to the prefix; a genuine payload larger than the first chunk (64 KiB)
// still round-trips through the growth loop.
func TestLengthPrefixCannotOutgrowInput(t *testing.T) {
	readers := map[string]func(*Reader){
		"Bytes": func(r *Reader) { r.Bytes() },
		"I32s":  func(r *Reader) { r.I32s() },
		"F32s":  func(r *Reader) { r.F32s() },
		"Ints":  func(r *Reader) { r.Ints() },
	}
	for name, read := range readers {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.I64(1 << 30) // 1–8 GiB of payload announced, 64 bytes present
		w.Bytes(make([]byte, 56))
		w.Flush()
		r := NewReader(&buf)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		read(r)
		runtime.ReadMemStats(&after)
		if r.Err() == nil {
			t.Errorf("%s: a payload longer than the input was accepted", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
			t.Errorf("%s: allocated %d bytes decoding a 72-byte input", name, got)
		}
	}

	want := make([]int32, 700_000) // 2.8 MB: six doublings of the first chunk
	for i := range want {
		want[i] = int32(i * 7)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.I32s(want)
	w.Flush()
	r := NewReader(&buf)
	if got := r.I32s(); r.Err() != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("large slice did not round-trip (err %v, %d elements)", r.Err(), len(got))
	}
}

func TestErrorSticky(t *testing.T) {
	r := NewReader(bytes.NewReader(nil))
	_ = r.U64() // EOF
	if r.Err() == nil {
		t.Fatal("no error at EOF")
	}
	first := r.Err()
	_ = r.I32s() // must stay a no-op
	if r.Err() != first {
		t.Error("error not sticky")
	}
}

// TestWriteFile: a clean encode lands at path and reads back from the file,
// each slice allocated once at its length; a failing encode, or a rename
// onto a directory, returns the error, leaves what was at path in place and
// leaves no temporary file behind.
func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.bin")
	want := make([]float32, 100_000)
	for i := range want {
		want[i] = float32(i) / 3
	}
	if err := WriteFile(path, func(w *Writer) error { w.Magic("TEST01"); w.F32s(want); return nil }); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := NewReader(f)
	r.Magic("TEST01")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := r.F32s()
	runtime.ReadMemStats(&after)
	if r.Err() != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("file did not round-trip (err %v, %d floats)", r.Err(), len(got))
	}
	if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(want)+2*chunk); alloc > limit {
		t.Errorf("reading %d floats from a file allocated %d bytes (limit %d)", len(want), alloc, limit)
	}

	boom := errors.New("boom")
	if err := WriteFile(path, func(w *Writer) error { w.Magic("LOST"); return boom }); !errors.Is(err, boom) {
		t.Errorf("failing encode: err = %v, want %v", err, boom)
	}
	if b, err := os.ReadFile(path); err != nil || !bytes.HasPrefix(b, []byte("TEST01")) {
		t.Errorf("a failed write replaced the file at path (err %v)", err)
	}
	sub := filepath.Join(dir, "sub")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sub, "keep"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(sub, func(w *Writer) error { w.Magic("DIR"); return nil }); err == nil {
		t.Error("rename onto a non-empty directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "x.bin" && e.Name() != "sub" {
			t.Errorf("temporary file %s left behind", e.Name())
		}
	}
}
