package sq

import (
	"fmt"
	"math"

	"svdbench/internal/binenc"
)

// WriteTo serialises the trained quantiser.
func (q *Quantizer) WriteTo(w *binenc.Writer) {
	w.Int(q.dim)
	w.F32s(q.min)
	w.F32s(q.scale)
}

// ReadQuantizer deserialises a quantiser written with WriteTo. It accepts
// only what Train can produce: finite minimums and finite, positive steps
// (a NaN step would turn every distance into NaN without an error).
func ReadQuantizer(r *binenc.Reader) (*Quantizer, error) {
	q := &Quantizer{dim: r.Int()}
	q.min = r.F32s()
	q.scale = r.F32s()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("sq: read quantiser: %w", err)
	}
	if q.dim <= 0 || len(q.min) != q.dim || len(q.scale) != q.dim {
		return nil, fmt.Errorf("sq: corrupt quantiser (dim=%d min=%d scale=%d)", q.dim, len(q.min), len(q.scale))
	}
	for j := range q.min {
		lo, step := float64(q.min[j]), float64(q.scale[j])
		if math.IsNaN(lo) || math.IsInf(lo, 0) || !(step > 0) || math.IsInf(step, 0) {
			return nil, fmt.Errorf("sq: corrupt quantiser: dimension %d has min %v, step %v", j, q.min[j], q.scale[j])
		}
	}
	return q, nil
}
