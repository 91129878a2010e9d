// Package vec provides the float32 vector kernels used throughout the
// benchmark: dot products, squared Euclidean distance, cosine similarity,
// and normalisation, plus batch variants (batch.go) that score one query
// against many rows per call — SSE assembly on amd64, interleaved pure Go
// elsewhere, bit-identical to the scalar path either way (see kernels.go for
// the reduction-order contract). The simulated CPU cost model
// (index.CostModel) prices virtual time per dimension independently of the
// host's real speed.
package vec

import (
	"fmt"
	"math"
)

// Metric identifies a distance (or similarity) function between two vectors.
type Metric int

const (
	// L2 is squared Euclidean distance (smaller is closer).
	L2 Metric = iota
	// IP is negative inner product (smaller is closer), for maximum
	// inner-product search.
	IP
	// Cosine is cosine distance 1-cos(a,b) (smaller is closer).
	Cosine
)

func (m Metric) String() string {
	switch m {
	case L2:
		return "L2"
	case IP:
		return "IP"
	case Cosine:
		return "COSINE"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Distance computes the metric between a and b; smaller is always closer.
// The slices must have equal length.
func Distance(m Metric, a, b []float32) float32 {
	switch m {
	case L2:
		return L2Sq(a, b)
	case IP:
		return -Dot(a, b)
	case Cosine:
		return CosineDistance(a, b)
	default:
		panic("vec: unknown metric")
	}
}

// Dot returns the inner product of a and b.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: length mismatch %d vs %d", len(a), len(b)))
	}
	return dotGo(a, b)
}

// L2Sq returns the squared Euclidean distance between a and b.
func L2Sq(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: length mismatch %d vs %d", len(a), len(b)))
	}
	return l2sqGo(a, b)
}

// Norm returns the Euclidean norm of a.
func Norm(a []float32) float32 {
	return float32(math.Sqrt(float64(dotGo(a, a))))
}

// CosineDistance returns 1 - cos(a, b). Zero vectors yield distance 1.
// All three accumulations (a·b, a·a, b·b) happen in one fused pass over the
// data; each follows the standard reduction order, so the result is
// bit-identical to computing Dot(a, b), Norm(a) and Norm(b) separately.
func CosineDistance(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: length mismatch %d vs %d", len(a), len(b)))
	}
	ab, aa, bb := dotFused3Go(a, b)
	return CosineFromDot(ab, float32(math.Sqrt(float64(aa))), float32(math.Sqrt(float64(bb))))
}

// CosineFromDot finishes a cosine distance from the pair's dot product and
// the two norms: 1 - ab/(na*nb), or 1 when either vector is zero. It is the
// one place the formula and the zero-vector rule live, shared by the fused
// scalar path and every cached-norm path (CosineDistanceBatch, index.Scorer).
func CosineFromDot(ab, na, nb float32) float32 {
	if na == 0 || nb == 0 {
		return 1
	}
	return 1 - ab/(na*nb)
}

// Normalize scales a to unit length in place. Zero vectors are unchanged.
func Normalize(a []float32) {
	n := Norm(a)
	if n == 0 {
		return
	}
	inv := 1 / n
	for i := range a {
		a[i] *= inv
	}
}

// Clone returns a fresh copy of a.
func Clone(a []float32) []float32 {
	out := make([]float32, len(a))
	copy(out, a)
	return out
}

// Add accumulates b into a element-wise.
func Add(a, b []float32) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: length mismatch %d vs %d", len(a), len(b)))
	}
	for i := range a {
		a[i] += b[i]
	}
}

// Scale multiplies every element of a by s.
func Scale(a []float32, s float32) {
	for i := range a {
		a[i] *= s
	}
}

// Matrix is a dense row-major collection of equal-dimension vectors backed by
// one contiguous allocation, the storage format used by datasets and
// indexes.
type Matrix struct {
	Dim  int
	data []float32
}

// NewMatrix allocates an n×dim matrix of zeros.
func NewMatrix(n, dim int) *Matrix {
	return &Matrix{Dim: dim, data: make([]float32, n*dim)}
}

// MatrixFromRows builds a matrix by copying the given rows, which must all
// have identical length.
func MatrixFromRows(rows [][]float32) *Matrix {
	if len(rows) == 0 {
		return &Matrix{}
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Dim {
			panic(fmt.Sprintf("vec: row %d has dim %d, want %d", i, len(r), m.Dim))
		}
		copy(m.Row(i), r)
	}
	return m
}

// Len returns the number of rows.
func (m *Matrix) Len() int {
	if m.Dim == 0 {
		return 0
	}
	return len(m.data) / m.Dim
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float32 {
	return m.data[i*m.Dim : (i+1)*m.Dim : (i+1)*m.Dim]
}

// SetRow copies v into row i.
func (m *Matrix) SetRow(i int, v []float32) {
	copy(m.Row(i), v)
}

// Raw exposes the backing slice (rows concatenated) for serialisation.
func (m *Matrix) Raw() []float32 { return m.data }

// AppendRow grows the matrix by one row (copying v).
func (m *Matrix) AppendRow(v []float32) {
	if m.Dim == 0 {
		m.Dim = len(v)
	}
	if len(v) != m.Dim {
		panic(fmt.Sprintf("vec: append row dim %d, want %d", len(v), m.Dim))
	}
	m.data = append(m.data, v...)
}
