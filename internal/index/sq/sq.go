// Package sq implements scalar quantisation: each float32 dimension is
// linearly mapped to an int8 using per-dimension min/max learned from
// training data. LanceDB's HNSW runs over scalar-quantised vectors in the
// paper's setup; the codec costs accuracy (O-3) in exchange for 4× less
// memory.
package sq

import (
	"fmt"

	"svdbench/internal/vec"
)

// Quantizer holds the per-dimension affine mapping.
type Quantizer struct {
	dim   int
	min   []float32
	scale []float32 // (max-min)/255 per dimension
}

// Train learns per-dimension ranges from the training rows.
func Train(training *vec.Matrix) (*Quantizer, error) {
	if training.Len() == 0 {
		return nil, fmt.Errorf("sq: empty training set")
	}
	dim := training.Dim
	q := &Quantizer{
		dim:   dim,
		min:   make([]float32, dim),
		scale: make([]float32, dim),
	}
	maxv := make([]float32, dim)
	copy(q.min, training.Row(0))
	copy(maxv, training.Row(0))
	for i := 1; i < training.Len(); i++ {
		row := training.Row(i)
		for j, v := range row {
			if v < q.min[j] {
				q.min[j] = v
			}
			if v > maxv[j] {
				maxv[j] = v
			}
		}
	}
	for j := range q.scale {
		r := maxv[j] - q.min[j]
		if r <= 0 {
			r = 1
		}
		q.scale[j] = r / 255
	}
	return q, nil
}

// Dim returns the trained dimensionality.
func (q *Quantizer) Dim() int { return q.dim }

// Encode quantises v to one byte per dimension.
func (q *Quantizer) Encode(v []float32) []byte {
	if len(v) != q.dim {
		panic(fmt.Sprintf("sq: encode dim %d, want %d", len(v), q.dim))
	}
	code := make([]byte, q.dim)
	for j, x := range v {
		t := (x - q.min[j]) / q.scale[j]
		switch {
		case t <= 0:
			code[j] = 0
		case t >= 255:
			code[j] = 255
		default:
			code[j] = byte(t + 0.5)
		}
	}
	return code
}

// EncodeAll quantises every row into a packed n×dim byte array.
func (q *Quantizer) EncodeAll(data *vec.Matrix) []byte {
	n := data.Len()
	codes := make([]byte, n*q.dim)
	for i := 0; i < n; i++ {
		copy(codes[i*q.dim:], q.Encode(data.Row(i)))
	}
	return codes
}

// Decode reconstructs the approximate vector of a code.
func (q *Quantizer) Decode(code []byte) []float32 {
	v := make([]float32, q.dim)
	for j, c := range code {
		v[j] = q.min[j] + float32(c)*q.scale[j]
	}
	return v
}

// DistanceL2Sq computes squared Euclidean distance between a full-precision
// query and a code without materialising the decoded vector: vec.SQL2Sq, the
// serial chain every batch form below reproduces bit for bit.
func (q *Quantizer) DistanceL2Sq(query []float32, code []byte) float32 {
	return vec.SQL2Sq(query, q.min, q.scale, code)
}

// DistanceAt scores code i inside a packed code array.
func (q *Quantizer) DistanceAt(query []float32, codes []byte, i int) float32 {
	return q.DistanceL2Sq(query, codes[i*q.dim:(i+1)*q.dim])
}

// DistanceBatch writes DistanceAt(query, codes, ids[i]) into out[i], four
// codes per kernel pass, each bit-identical to the scalar call.
//
//annlint:hotpath
func (q *Quantizer) DistanceBatch(query []float32, codes []byte, ids []int32, out []float32) {
	vec.SQL2SqBatch(query, q.min, q.scale, codes, ids, out)
}

// DecodeLane decodes code i of a packed code array into the given lane of a
// vec lane block (vec.LaneBlockLen). vec.L2SqLanes then scores a query
// against the lane bit-identically to DistanceAt on that code.
func (q *Quantizer) DecodeLane(block []float32, lane int, codes []byte, i int) {
	vec.SQDecodeLane(block, q.min, q.scale, codes[i*q.dim:(i+1)*q.dim], lane)
}

// MemoryBytes reports the codec's parameter footprint.
func (q *Quantizer) MemoryBytes() int64 { return int64(q.dim) * 8 }

// MaxErrorBound returns the worst-case per-dimension reconstruction error
// (half a quantisation step), useful for accuracy reasoning in tests.
func (q *Quantizer) MaxErrorBound() []float32 {
	out := make([]float32, q.dim)
	for j := range out {
		out[j] = q.scale[j] / 2
	}
	return out
}
