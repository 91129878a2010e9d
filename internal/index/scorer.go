package index

import (
	"svdbench/internal/vec"
)

// Scorer evaluates metric distances between queries and the rows of a
// matrix, and is the one way stored rows are scored under cosine: it caches
// vec.Norm(row) for every row (at construction and on Append) and the
// query's norm per query, so a distance costs one dot product through the
// 4-row batch kernels instead of three scalar ones. Cached norms are exactly
// the norms the scalar path would recompute, so every distance stays
// bit-identical to vec.Distance (see DESIGN.md "Kernels & scratch buffers").
// The scorer owns its norms; the matrix may only grow through Append.
type Scorer struct {
	data   *vec.Matrix
	metric vec.Metric
	norms  []float32 // vec.Norm of each row; only for Cosine
}

// NewScorer builds a scorer over data.
func NewScorer(data *vec.Matrix, metric vec.Metric) *Scorer {
	s := &Scorer{data: data, metric: metric}
	if metric == vec.Cosine {
		s.norms = vec.Norms(data)
	}
	return s
}

// Append adds v as a new last row of the scorer's matrix, caching its norm.
// It must not run concurrently with scoring.
func (s *Scorer) Append(v []float32) {
	s.data.AppendRow(v)
	if s.metric == vec.Cosine {
		s.norms = append(s.norms, vec.Norm(v))
	}
}

// QueryScorer scores one query against the scorer's rows.
type QueryScorer struct {
	s     *Scorer
	q     []float32
	qnorm float32
}

// Query prepares a query vector (caching its norm for cosine).
func (s *Scorer) Query(q []float32) QueryScorer {
	qs := QueryScorer{s: s, q: q}
	if s.metric == vec.Cosine {
		qs.qnorm = vec.Norm(q)
	}
	return qs
}

// QueryRow prepares row i of the matrix itself as the query, reusing its
// cached norm (used during graph construction, where stored vectors query
// each other).
func (s *Scorer) QueryRow(i int) QueryScorer {
	qs := QueryScorer{s: s, q: s.data.Row(i)}
	if s.metric == vec.Cosine {
		qs.qnorm = s.norms[i]
	}
	return qs
}

// Vector returns the underlying query vector.
func (qs QueryScorer) Vector() []float32 { return qs.q }

// Dist returns the metric distance from the query to row i (smaller is
// closer, consistent with vec.Distance).
func (qs QueryScorer) Dist(i int) float32 {
	switch qs.s.metric {
	case vec.L2:
		return vec.L2Sq(qs.q, qs.s.data.Row(i))
	case vec.IP:
		return -vec.Dot(qs.q, qs.s.data.Row(i))
	case vec.Cosine:
		return vec.CosineFromDot(vec.Dot(qs.q, qs.s.data.Row(i)), qs.qnorm, qs.s.norms[i])
	default:
		panic("index: unknown metric")
	}
}

// DistBatch writes the metric distance from the query to each listed row
// into out (len(out) must equal len(ids)). Every out[i] is bit-identical to
// Dist(ids[i]); rows are gathered four at a time through the vec batch
// kernels, which amortise the query loads and (on amd64) run in SSE. A
// remainder of one to three ids is padded with its last id, so it takes the
// 4-row kernel too.
//
//annlint:hotpath
func (qs QueryScorer) DistBatch(ids []int32, out []float32) {
	if len(ids) != len(out) {
		panic("index: DistBatch ids/out length mismatch")
	}
	d := qs.s.data
	n := len(ids)
	metric, last := qs.s.metric, n-1
	for i := 0; i < n; i += 4 {
		r0 := d.Row(int(ids[i]))
		r1 := d.Row(int(ids[min(i+1, last)]))
		r2 := d.Row(int(ids[min(i+2, last)]))
		r3 := d.Row(int(ids[min(i+3, last)]))
		var t [4]float32
		if metric == vec.L2 {
			t[0], t[1], t[2], t[3] = vec.L2Sq4(qs.q, r0, r1, r2, r3)
		} else {
			t[0], t[1], t[2], t[3] = vec.Dot4(qs.q, r0, r1, r2, r3)
		}
		copy(out[i:], t[:])
	}
	switch metric {
	case vec.L2:
	case vec.IP:
		for j := range out {
			out[j] = -out[j]
		}
	case vec.Cosine:
		for j, id := range ids {
			out[j] = vec.CosineFromDot(out[j], qs.qnorm, qs.s.norms[id])
		}
	default:
		panic("index: unknown metric")
	}
}

// DistRange writes the metric distance from the query to the len(out)
// consecutive rows starting at row lo into out: the contiguous form of
// DistBatch, one packed-rows kernel call with no gather. Every out[i] is
// bit-identical to Dist(lo+i).
//
//annlint:hotpath
func (qs QueryScorer) DistRange(lo int, out []float32) {
	dim := qs.s.data.Dim
	rows := qs.s.data.Raw()[lo*dim : (lo+len(out))*dim]
	if qs.s.metric == vec.Cosine {
		vec.CosineDistanceBatch(qs.q, qs.qnorm, rows, qs.s.norms[lo:lo+len(out)], out)
		return
	}
	vec.DistanceBatch(qs.s.metric, qs.q, rows, out)
}

// Metric returns the scorer's metric.
func (s *Scorer) Metric() vec.Metric { return s.metric }
