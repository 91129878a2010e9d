package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"svdbench/internal/vec"
)

// File format: a little-endian binary layout with a magic header, the spec,
// then vectors, queries and ground truth. The format exists so expensive
// ground-truth computation is paid once per spec and reused across harness
// invocations.

const fileMagic = "SVDBDS01"

// CachePath returns the cache file name for a spec inside dir. Every field
// that shapes the generated data participates, so changing the generator's
// parameters can never resurrect stale caches.
func CachePath(dir string, spec Spec) string {
	return filepath.Join(dir, fmt.Sprintf("%s-n%d-d%d-q%d-k%d-s%d-c%d-sp%03d.ds",
		sanitize(spec.Name), spec.N, spec.Dim, spec.NumQueries, spec.GroundK, spec.Seed,
		spec.Clusters, int(spec.Spread*100)))
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// LoadOrGenerate returns the dataset for spec, reading it from the cache
// directory when present and generating + caching it otherwise. An empty dir
// disables caching.
func LoadOrGenerate(dir string, spec Spec) (*Dataset, error) {
	if dir == "" {
		return Generate(spec), nil
	}
	path := CachePath(dir, spec)
	if ds, err := ReadFile(path); err == nil {
		return ds, nil
	}
	ds := Generate(spec)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dataset: create cache dir: %w", err)
	}
	if err := WriteFile(path, ds); err != nil {
		return nil, err
	}
	return ds, nil
}

// WriteFile stores the dataset at path atomically.
func WriteFile(path string, ds *Dataset) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := encode(w, ds); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("dataset: encode: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("dataset: flush: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("dataset: close: %w", err)
	}
	return os.Rename(tmp, path)
}

// ReadFile loads a dataset previously stored with WriteFile.
func ReadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	return decode(bufio.NewReaderSize(f, 1<<20), info.Size())
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, int32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n int32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n < 0 || n > 1<<20 {
		return "", fmt.Errorf("bad string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func writeFloats(w io.Writer, data []float32) error {
	buf := make([]byte, 8192)
	for len(data) > 0 {
		n := len(buf) / 4
		if n > len(data) {
			n = len(data)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(data[i]))
		}
		if _, err := w.Write(buf[:n*4]); err != nil {
			return err
		}
		data = data[n:]
	}
	return nil
}

func readFloats(r io.Reader, data []float32) error {
	buf := make([]byte, 8192)
	for len(data) > 0 {
		n := len(buf) / 4
		if n > len(data) {
			n = len(data)
		}
		if _, err := io.ReadFull(r, buf[:n*4]); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			data[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
		}
		data = data[n:]
	}
	return nil
}

func encode(w io.Writer, ds *Dataset) error {
	if _, err := io.WriteString(w, fileMagic); err != nil {
		return err
	}
	if err := writeString(w, ds.Spec.Name); err != nil {
		return err
	}
	hdr := []int64{
		int64(ds.Spec.N), int64(ds.Spec.Dim), int64(ds.Spec.NumQueries),
		int64(ds.Spec.Clusters), int64(math.Float64bits(ds.Spec.Spread)),
		ds.Spec.Seed, int64(ds.Spec.Metric), int64(ds.Spec.GroundK),
	}
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		return err
	}
	if err := writeFloats(w, ds.Vectors.Raw()); err != nil {
		return err
	}
	if err := writeFloats(w, ds.Queries.Raw()); err != nil {
		return err
	}
	for _, gt := range ds.GroundTruth {
		if err := binary.Write(w, binary.LittleEndian, int32(len(gt))); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, gt); err != nil {
			return err
		}
	}
	return nil
}

// decode reads a dataset file of size bytes. Every allocation is bounded by
// size: the header's counts are checked against the words the rest of the
// file can hold before any payload is sized from them, so a corrupt header
// is an error, never a huge or impossible allocation.
func decode(r io.Reader, size int64) (*Dataset, error) {
	ds, err := decodeBody(r, size)
	if err != nil {
		return nil, fmt.Errorf("dataset: decode: %w", err)
	}
	return ds, nil
}

func decodeBody(r io.Reader, size int64) (*Dataset, error) {
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, err
	}
	if string(magic) != fileMagic {
		return nil, fmt.Errorf("bad magic %q", magic)
	}
	name, err := readString(r)
	if err != nil {
		return nil, err
	}
	hdr := make([]int64, 8)
	if err := binary.Read(r, binary.LittleEndian, hdr); err != nil {
		return nil, err
	}
	n, dim, nq := hdr[0], hdr[1], hdr[2]
	// words is the number of 4-byte values the payload can hold: the
	// vectors and queries (n+nq rows of dim floats) and, per query, one
	// ground-truth length word and its ids. Comparing by division keeps
	// n·dim from overflowing.
	words := (size - int64(len(fileMagic)+4+len(name)+8*len(hdr))) / 4
	metric := vec.Metric(hdr[6])
	if n <= 0 || dim <= 0 || nq <= 0 || n > math.MaxInt32 || hdr[7] < 0 ||
		hdr[6] < int64(vec.L2) || hdr[6] > int64(vec.Cosine) ||
		n > words || nq > words || n+nq > words/dim || (n+nq)*dim+nq > words {
		return nil, fmt.Errorf("corrupt header: n %d, dim %d, queries %d, metric %v, ground-truth depth %d for a %d-byte file",
			n, dim, nq, metric, hdr[7], size)
	}
	words -= (n+nq)*dim + nq
	spec := Spec{
		Name:       name,
		N:          int(hdr[0]),
		Dim:        int(hdr[1]),
		NumQueries: int(hdr[2]),
		Clusters:   int(hdr[3]),
		Spread:     math.Float64frombits(uint64(hdr[4])),
		Seed:       hdr[5],
		Metric:     metric,
		GroundK:    int(hdr[7]),
	}
	vectors := vec.NewMatrix(spec.N, spec.Dim)
	if err := readFloats(r, vectors.Raw()); err != nil {
		return nil, err
	}
	queries := vec.NewMatrix(spec.NumQueries, spec.Dim)
	if err := readFloats(r, queries.Raw()); err != nil {
		return nil, err
	}
	gt := make([][]int32, spec.NumQueries)
	for i := range gt {
		var depth int32
		if err := binary.Read(r, binary.LittleEndian, &depth); err != nil {
			return nil, err
		}
		if depth < 0 || int64(depth) > n || int64(depth) > words {
			return nil, fmt.Errorf("corrupt ground truth length %d", depth)
		}
		words -= int64(depth)
		gt[i] = make([]int32, depth)
		if err := binary.Read(r, binary.LittleEndian, gt[i]); err != nil {
			return nil, err
		}
	}
	return &Dataset{Spec: spec, Vectors: vectors, Queries: queries, GroundTruth: gt}, nil
}
