package vec

import "fmt"

// Batch scoring API: score one query against many rows per call. On amd64
// the 4-row kernels are SSE assembly (see kernels_amd64.s) and packed rows
// are walked inside the kernel, one call per batch; elsewhere (and under the
// purego build tag, which exists to test the fallback) they are the
// interleaved pure-Go kernels in kernels.go. Either way every
// per-row result is bit-identical to the corresponding scalar call
// (Dot/L2Sq/Distance) — batch scoring may change speed, never floats — so
// callers are free to batch anywhere, including build paths and recorded
// executions, without perturbing golden files or pre-built index assets.

// Dot4 returns the four dot products of q against r0..r3, each bit-identical
// to Dot(q, r_i). All five slices must have equal length.
func Dot4(q, r0, r1, r2, r3 []float32) (d0, d1, d2, d3 float32) {
	check4(len(q), len(r0), len(r1), len(r2), len(r3))
	return dot4(q, r0, r1, r2, r3)
}

// L2Sq4 returns the four squared Euclidean distances of q against r0..r3,
// each bit-identical to L2Sq(q, r_i). All five slices must have equal length.
func L2Sq4(q, r0, r1, r2, r3 []float32) (d0, d1, d2, d3 float32) {
	check4(len(q), len(r0), len(r1), len(r2), len(r3))
	return l2sq4(q, r0, r1, r2, r3)
}

func check4(n, n0, n1, n2, n3 int) {
	if n0 != n || n1 != n || n2 != n || n3 != n {
		panic(fmt.Sprintf("vec: length mismatch %d vs %d/%d/%d/%d", n, n0, n1, n2, n3))
	}
}

// DotBatch writes Dot(q, row_i) into out[i] for the len(out) rows packed
// row-major in rows (len(rows) must be len(out)*len(q)). Each out[i] is
// bit-identical to the scalar call.
//
//annlint:hotpath
func DotBatch(q, rows []float32, out []float32) {
	d, n := len(q), len(out)
	if len(rows) != n*d {
		panic(fmt.Sprintf("vec: rows length %d, want %d rows x dim %d", len(rows), n, d))
	}
	i := n &^ 3
	dotRows(q, rows[:i*d], out[:i])
	if i < n {
		r0, r1, r2, r3 := tail4(rows, d, i, n)
		t := [4]float32{}
		t[0], t[1], t[2], t[3] = dot4(q, r0, r1, r2, r3)
		copy(out[i:], t[:n-i])
	}
}

// L2SqBatch writes L2Sq(q, row_i) into out[i] for the len(out) rows packed
// row-major in rows (len(rows) must be len(out)*len(q)). Each out[i] is
// bit-identical to the scalar call.
//
//annlint:hotpath
func L2SqBatch(q, rows []float32, out []float32) {
	d, n := len(q), len(out)
	if len(rows) != n*d {
		panic(fmt.Sprintf("vec: rows length %d, want %d rows x dim %d", len(rows), n, d))
	}
	i := n &^ 3
	l2sqRows(q, rows[:i*d], out[:i])
	if i < n {
		r0, r1, r2, r3 := tail4(rows, d, i, n)
		t := [4]float32{}
		t[0], t[1], t[2], t[3] = l2sq4(q, r0, r1, r2, r3)
		copy(out[i:], t[:n-i])
	}
}

// tail4 returns packed rows i..n-1 (one to three of them) padded to four by
// repeating row n-1, so the n%4 remainder of a batch rides the 4-row kernel
// like every other row instead of falling back to the ~5x slower scalar
// loop. Rows are scored independently, so the padding changes no result.
func tail4(rows []float32, d, i, n int) (r0, r1, r2, r3 []float32) {
	r3 = rows[(n-1)*d : n*d : n*d]
	r0, r1, r2 = rows[i*d:(i+1)*d:(i+1)*d], r3, r3
	if i+1 < n {
		r1 = rows[(i+1)*d : (i+2)*d : (i+2)*d]
	}
	if i+2 < n {
		r2 = rows[(i+2)*d : (i+3)*d : (i+3)*d]
	}
	return r0, r1, r2, r3
}

// DistanceBatch writes Distance(m, q, row_i) into out[i] for the len(out)
// rows packed row-major in rows. Each out[i] is bit-identical to the scalar
// call; for Cosine, Norm(q) is computed once (it is a pure function of q, so
// reusing it is still bit-identical to the per-pair scalar path).
//
//annlint:hotpath
func DistanceBatch(m Metric, q, rows []float32, out []float32) {
	switch m {
	case L2:
		L2SqBatch(q, rows, out)
	case IP:
		DotBatch(q, rows, out)
		for i := range out {
			out[i] = -out[i]
		}
	case Cosine:
		cosineDistanceBatch(q, rows, out)
	default:
		panic("vec: unknown metric")
	}
}

func cosineDistanceBatch(q, rows []float32, out []float32) {
	d := len(q)
	qn := Norm(q)
	DotBatch(q, rows, out)
	for i := range out {
		out[i] = CosineFromDot(out[i], qn, Norm(rows[i*d:(i+1)*d:(i+1)*d]))
	}
}

// CosineDistanceBatch is the cached-norm form of DistanceBatch(Cosine, ...):
// given qn = Norm(q) and norms[i] = Norm(row_i) it costs one DotBatch plus a
// division per row, where the norm-less form pays two more dot products per
// pair. Because Norm follows the standard reduction order, each out[i] is
// still bit-identical to CosineDistance(q, row_i) — caching a norm changes
// when it is computed, never its bits.
//
//annlint:hotpath
func CosineDistanceBatch(q []float32, qn float32, rows, norms, out []float32) {
	if len(norms) != len(out) {
		panic(fmt.Sprintf("vec: %d norms for %d rows", len(norms), len(out)))
	}
	DotBatch(q, rows, out)
	for i, rn := range norms {
		out[i] = CosineFromDot(out[i], qn, rn)
	}
}

// Norms returns Norm(row) for every row of m: the per-row cache
// CosineDistanceBatch consumes.
func Norms(m *Matrix) []float32 {
	norms := make([]float32, m.Len())
	for i := range norms {
		norms[i] = Norm(m.Row(i))
	}
	return norms
}

// The k-means and PQ builds score many points against one block of centroids
// and keep only the nearest. They pack the centroids once into a lane block
// (see LaneBlockLen), so one packed operation serves four centroids at a
// dimension, and score every point against it with the two entry points
// below. Unlike the SQ lane kernel (L2SqLanes), these keep the L2Sq
// reduction-order contract per lane: four accumulators over dimensions j,
// j+4, …, reduced ((s0+s1)+s2)+s3, the d%4 remainder folded in afterwards.
// Lanes are centroids, so the reduction needs no transpose, and every lane
// is bit-identical to L2Sq(x, row).

// PackLanes returns the lane block of the len(rows)/d row-major rows of
// rows, in dst's storage when its capacity suffices. The kernels below take
// groups in pairs, so the block holds a multiple of eight rows: the padding
// repeats the last row and scores exactly like it.
func PackLanes(dst, rows []float32, d int) []float32 {
	n := len(rows) / d
	size := pairedLen(n, d)
	if cap(dst) < size {
		dst = make([]float32, size)
	}
	dst = dst[:size]
	row := func(i int) []float32 { return rows[min(i, n-1)*d:][:d] }
	for i := 0; i < size/d; i += 4 {
		r0, r1, r2, r3 := row(i), row(i+1), row(i+2), row(i+3)
		g := dst[i*d:][:4*d]
		for j, v := range r0 {
			g := g[4*j : 4*j+4 : 4*j+4]
			g[0], g[1], g[2], g[3] = v, r1[j], r2[j], r3[j]
		}
	}
	return dst
}

// pairedLen is the length of a PackLanes block of n rows of d floats.
func pairedLen(n, d int) int { return (n + 7) / 8 * 8 * d }

// L2SqLaneBatch writes L2Sq(x, row_i) into out[i] for the first len(out)
// rows packed into block by PackLanes; each out[i] is bit-identical to the
// scalar call.
//
//annlint:hotpath
func L2SqLaneBatch(x, block, out []float32) {
	d, n := len(x), len(out)
	if len(block) < pairedLen(n, d) {
		panic(fmt.Sprintf("vec: lane block of %d floats for %d rows of dim %d", len(block), n, d))
	}
	full := n &^ 7
	l2sqLaneRows(x, block[:full*d], out[:full])
	if full < n {
		var t [8]float32
		l2sqLaneRows(x, block[full*d:(full+8)*d], t[:])
		copy(out[full:], t[:n-full])
	}
}

// NearestLane returns the index of the row nearest to x under L2Sq among the
// first k rows packed into block by PackLanes: the first minimum in row
// order (strict <), and 0 when no distance is below +Inf — the rule of a
// scalar scan that starts from (0, +Inf).
//
//annlint:hotpath
func NearestLane(x, block []float32, k int) int {
	d := len(x)
	if k <= 0 || len(block) < pairedLen(k, d) {
		panic(fmt.Sprintf("vec: lane block of %d floats for %d rows of dim %d", len(block), k, d))
	}
	return nearestLane(x, block[:pairedLen(k, d)], k)
}
