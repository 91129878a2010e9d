package pq

import (
	"fmt"

	"svdbench/internal/binenc"
	"svdbench/internal/vec"
)

// WriteTo serialises the trained quantiser.
func (q *Quantizer) WriteTo(w *binenc.Writer) {
	w.Int(q.dim)
	w.Int(q.m)
	w.Int(q.subDim)
	w.Int(q.ksub)
	for _, cb := range q.codebooks {
		w.F32s(cb.Raw())
	}
}

// ReadQuantizer deserialises a quantiser written with WriteTo.
func ReadQuantizer(r *binenc.Reader) (*Quantizer, error) {
	q := &Quantizer{
		dim:    r.Int(),
		m:      r.Int(),
		subDim: r.Int(),
		ksub:   r.Int(),
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	if q.m <= 0 || q.subDim <= 0 || q.dim != q.m*q.subDim || q.ksub <= 0 || q.ksub > centroidsPerSub {
		return nil, fmt.Errorf("pq: corrupt quantiser header %+v", q)
	}
	// Grown as codebooks arrive: a corrupt m must not size an allocation.
	for s := 0; s < q.m; s++ {
		raw := r.F32s()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if len(raw) != q.ksub*q.subDim {
			return nil, fmt.Errorf("pq: codebook %d has %d floats, want %d", s, len(raw), q.ksub*q.subDim)
		}
		cb := vec.NewMatrix(q.ksub, q.subDim)
		copy(cb.Raw(), raw)
		q.codebooks = append(q.codebooks, cb)
	}
	return q, nil
}
