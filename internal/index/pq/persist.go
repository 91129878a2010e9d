package pq

import (
	"fmt"

	"svdbench/internal/binenc"
	"svdbench/internal/vec"
)

// WriteTo serialises the trained quantiser, each codebook as its ksub
// row-major centroids.
func (q *Quantizer) WriteTo(w *binenc.Writer) {
	w.Int(q.dim)
	w.Int(q.m)
	w.Int(q.subDim)
	w.Int(q.ksub)
	raw := make([]float32, q.ksub*q.subDim)
	for _, cb := range q.codebooks {
		for c := 0; c < q.ksub; c++ {
			vec.LaneRow(raw[c*q.subDim:(c+1)*q.subDim], cb, c)
		}
		w.F32s(raw)
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
		q.codebooks = append(q.codebooks, vec.PackLanes(nil, raw, q.subDim))
	}
	return q, nil
}
