// Package pq implements product quantisation (Jégou et al., TPAMI 2011), the
// compression codec DiskANN keeps in memory to steer its graph traversal and
// LanceDB applies to its IVF posting lists.
//
// A d-dimensional vector is split into M contiguous sub-vectors; each
// sub-vector is quantised to one of 256 centroids learned with k-means,
// giving an M-byte code. Asymmetric distance computation (ADC) against a
// query builds one 256-entry lookup table per sub-space and then scores any
// code with M table lookups.
package pq

import (
	"fmt"
	"math/rand"
	"runtime"

	"svdbench/internal/index"
	"svdbench/internal/index/kmeans"
	"svdbench/internal/par"
	"svdbench/internal/vec"
)

// Codebook size per sub-space; one code byte indexes it.
const centroidsPerSub = 256

// Quantizer is a trained product quantiser.
type Quantizer struct {
	dim    int
	m      int // sub-quantizer count
	subDim int
	ksub   int // centroids per sub-space (256, or fewer for tiny training sets)
	// codebooks[s] is the lane block (vec.PackLanes) of sub-space s's ksub
	// centroids: the one layout, the row-major matrix's size at ksub 256.
	codebooks [][]float32
}

// DefaultM returns the sub-quantizer count both PQ builders use when none is
// configured: dim/8 (8-float sub-vectors), at least 1, lowered until it
// divides dim.
func DefaultM(dim int) int {
	m := max(1, dim/8)
	for dim%m != 0 {
		m--
	}
	return m
}

// Train learns a quantiser with m sub-spaces from the training rows. dim
// must be divisible by m. The m sub-space k-means runs go to all cores; each
// has its own seed, so the codebooks do not depend on the schedule.
func Train(training *vec.Matrix, m int, seed int64) (*Quantizer, error) {
	dim := training.Dim
	if m <= 0 || dim%m != 0 {
		return nil, fmt.Errorf("pq: dim %d not divisible by m %d", dim, m)
	}
	if training.Len() == 0 {
		return nil, fmt.Errorf("pq: empty training set")
	}
	subDim := dim / m
	n := training.Len()
	// Cap the k-means training sample to keep construction tractable.
	sample := n
	if sample > 20_000 {
		sample = 20_000
	}
	// k-means clamps K to the sample.
	q := &Quantizer{dim: dim, m: m, subDim: subDim, ksub: min(centroidsPerSub, sample), codebooks: make([][]float32, m)}
	r := rand.New(rand.NewSource(seed))
	idx := r.Perm(n)[:sample]
	par.For(runtime.GOMAXPROCS(0), m, func(_, s int) {
		sub := vec.NewMatrix(sample, subDim)
		for i, row := range idx {
			copy(sub.Row(i), training.Row(row)[s*subDim:(s+1)*subDim])
		}
		res := kmeans.Run(sub, kmeans.Config{K: centroidsPerSub, MaxIter: 8, Seed: seed + int64(s)})
		q.codebooks[s] = vec.PackLanes(nil, res.Centroids.Raw(), subDim)
	})
	return q, nil
}

// M returns the number of sub-quantizers (bytes per code).
func (q *Quantizer) M() int { return q.m }

// Dim returns the vector dimensionality the quantiser was trained for.
func (q *Quantizer) Dim() int { return q.dim }

// Encode quantises v into an m-byte code.
func (q *Quantizer) Encode(v []float32) []byte {
	if len(v) != q.dim {
		panic(fmt.Sprintf("pq: encode dim %d, want %d", len(v), q.dim))
	}
	code := make([]byte, q.m)
	for s := range code {
		sub := v[s*q.subDim : (s+1)*q.subDim]
		code[s] = byte(vec.NearestLane(sub, q.codebooks[s], q.ksub))
	}
	return code
}

// EncodeAll quantises every row of data into a packed n×m code array, each
// code byte the one Encode writes. All cores claim the rows kmeans.RowBlock
// at a time, and walk each block one sub-space at a time against that
// codebook's lane block.
func (q *Quantizer) EncodeAll(data *vec.Matrix) []byte {
	if data.Dim != q.dim {
		panic(fmt.Sprintf("pq: encode dim %d, want %d", data.Dim, q.dim))
	}
	n := data.Len()
	codes := make([]byte, n*q.m)
	par.For(runtime.GOMAXPROCS(0), (n+kmeans.RowBlock-1)/kmeans.RowBlock, func(_, b int) {
		lo, hi := b*kmeans.RowBlock, min(n, (b+1)*kmeans.RowBlock)
		for s, block := range q.codebooks {
			for i := lo; i < hi; i++ {
				sub := data.Row(i)[s*q.subDim : (s+1)*q.subDim]
				codes[i*q.m+s] = byte(vec.NearestLane(sub, block, q.ksub))
			}
		}
	})
	return codes
}

// Decode reconstructs the approximate vector of a code.
func (q *Quantizer) Decode(code []byte) []float32 {
	v := make([]float32, q.dim)
	for s := 0; s < q.m; s++ {
		vec.LaneRow(v[s*q.subDim:(s+1)*q.subDim], q.codebooks[s], int(code[s]))
	}
	return v
}

// Table is a per-query ADC lookup table: Table[s*256+c] is the squared
// distance between the query's sub-vector s and centroid c.
type Table []float32

// BuildTable computes the ADC table for query under squared Euclidean
// distance. (Cosine queries must be normalised first; squared Euclidean on
// normalised vectors ranks identically to cosine distance.)
func (q *Quantizer) BuildTable(query []float32) Table {
	return q.BuildTableInto(query, nil)
}

// BuildTableInto computes the ADC table for query into t, reusing t's
// storage when its capacity suffices (the zero-allocation form of
// BuildTable): one vec.L2SqLaneBatch kernel entry per sub-space over its
// lane-block codebook, every entry bit-identical to the per-centroid scalar
// vec.L2Sq loop (DESIGN.md "One codebook layout: lane blocks"). Entries
// past ksub (under-trained codebooks) are never read — code bytes always
// index a trained centroid — so stale values there are harmless.
//
//annlint:hotpath
func (q *Quantizer) BuildTableInto(query []float32, t Table) Table {
	if len(query) != q.dim {
		panic(fmt.Sprintf("pq: table dim %d, want %d", len(query), q.dim))
	}
	t = index.Grow(t, q.m*centroidsPerSub)
	for s := 0; s < q.m; s++ {
		sub := query[s*q.subDim : (s+1)*q.subDim]
		base := s * centroidsPerSub
		vec.L2SqLaneBatch(sub, q.codebooks[s], t[base:base+q.ksub])
	}
	return t
}

// Distance scores one code against the table: the sum of M lookups in
// sub-space order (a row indexed as an array needs no check on the byte).
func (t Table) Distance(code []byte) float32 {
	var d float32
	for s, c := range code {
		d += (*[centroidsPerSub]float32)(t[s*centroidsPerSub:])[c]
	}
	return d
}

// DistanceRows writes the Distance of code rows[i] of the packed n×m code
// array into out[i], bit for bit: whole groups of four codes in one
// vec.ADCRows call (four add chains, each in Distance's order; a bad row
// panics there, in Go), a 1–3-row remainder through Distance.
//
//annlint:hotpath
func (t Table) DistanceRows(codes []byte, m int, rows []int32, out []float32) {
	out = out[:len(rows)]
	i := len(rows) &^ 3
	vec.ADCRows(t, codes, m, rows[:i], out[:i])
	for ; i < len(rows); i++ {
		out[i] = t.Distance(codes[int(rows[i])*m:][:m])
	}
}

// MemoryBytes reports the quantiser's codebook footprint.
func (q *Quantizer) MemoryBytes() int64 {
	return int64(q.m) * int64(q.ksub) * int64(q.subDim) * 4
}
