//go:build amd64 && !purego

package vec

// The SSE kernels process the d&^3 prefix of each row; the wrappers below
// fold the remainder elements in afterwards, matching the scalar kernels'
// order (remainder added one at a time after the ((s0+s1)+s2)+s3 reduction).
// They require d >= 4 (shorter rows take the Go kernels) and keep no pointer.

//go:noescape
func dot4SSE(q, r0, r1, r2, r3 *float32, n int) (d0, d1, d2, d3 float32)

//go:noescape
func l2sq4SSE(q, r0, r1, r2, r3 *float32, n int) (d0, d1, d2, d3 float32)

// dotRowsSSE and l2sqRowsSSE score groups consecutive groups of four packed
// d-float rows against q, writing four results per group to out.
//
//go:noescape
func dotRowsSSE(q, rows, out *float32, d, groups int)

//go:noescape
func l2sqRowsSSE(q, rows, out *float32, d, groups int)

func dot4(q, r0, r1, r2, r3 []float32) (d0, d1, d2, d3 float32) {
	n := len(q)
	if n < 4 {
		return dot4Go(q, r0, r1, r2, r3)
	}
	_, _, _, _ = r0[n-1], r1[n-1], r2[n-1], r3[n-1]
	d0, d1, d2, d3 = dot4SSE(&q[0], &r0[0], &r1[0], &r2[0], &r3[0], n)
	for i := n &^ 3; i < n; i++ {
		d0 += q[i] * r0[i]
		d1 += q[i] * r1[i]
		d2 += q[i] * r2[i]
		d3 += q[i] * r3[i]
	}
	return d0, d1, d2, d3
}

func l2sq4(q, r0, r1, r2, r3 []float32) (d0, d1, d2, d3 float32) {
	n := len(q)
	if n < 4 {
		return l2sq4Go(q, r0, r1, r2, r3)
	}
	_, _, _, _ = r0[n-1], r1[n-1], r2[n-1], r3[n-1]
	d0, d1, d2, d3 = l2sq4SSE(&q[0], &r0[0], &r1[0], &r2[0], &r3[0], n)
	for i := n &^ 3; i < n; i++ {
		t := q[i] - r0[i]
		d0 += t * t
		t = q[i] - r1[i]
		d1 += t * t
		t = q[i] - r2[i]
		d2 += t * t
		t = q[i] - r3[i]
		d3 += t * t
	}
	return d0, d1, d2, d3
}

// dotRows writes Dot(q, row_i) into out[i] for the len(out) rows packed in
// rows; len(out) is a multiple of four and len(rows) == len(out)*len(q).
func dotRows(q, rows, out []float32) {
	d := len(q)
	if d < 4 || len(out) == 0 {
		dotRowsGo(q, rows, out)
		return
	}
	_ = rows[len(out)*d-1]
	dotRowsSSE(&q[0], &rows[0], &out[0], d, len(out)/4)
	if d%4 != 0 {
		for i := range out {
			row := rows[i*d : (i+1)*d : (i+1)*d]
			for j := d &^ 3; j < d; j++ {
				out[i] += q[j] * row[j]
			}
		}
	}
}

// l2sqRows is dotRows for L2Sq.
func l2sqRows(q, rows, out []float32) {
	d := len(q)
	if d < 4 || len(out) == 0 {
		l2sqRowsGo(q, rows, out)
		return
	}
	_ = rows[len(out)*d-1]
	l2sqRowsSSE(&q[0], &rows[0], &out[0], d, len(out)/4)
	if d%4 != 0 {
		for i := range out {
			row := rows[i*d : (i+1)*d : (i+1)*d]
			for j := d &^ 3; j < d; j++ {
				t := q[j] - row[j]
				out[i] += t * t
			}
		}
	}
}

// The SQ kernels (sq.go): sqL2Sq4SSE runs the serial chain of four gathered
// codes over the d&^3 prefix, one code per lane, and the wrapper continues
// each lane's chain through the remainder. l2sqLanesSSE scores groups
// consecutive 4-lane groups of a lane block; it needs d >= 1.
//
//go:noescape
func sqL2Sq4SSE(x, lo, step *float32, c0, c1, c2, c3 *byte, n int) (d0, d1, d2, d3 float32)

//go:noescape
func l2sqLanesSSE(x, block, out *float32, d, groups int)

// sqL2SqBatch is SQL2SqBatch four ids per kernel call; a remainder of one to
// three ids is padded with its last id.
func sqL2SqBatch(x, lo, step []float32, codes []byte, ids []int32, out []float32) {
	d, n := len(x), len(ids)
	if d < 4 {
		sqL2SqBatchGo(x, lo, step, codes, ids, out)
		return
	}
	code := func(id int32) []byte { return codes[int(id)*d : (int(id)+1)*d : (int(id)+1)*d] }
	last := n - 1
	for i := 0; i < n; i += 4 {
		var t [4]float32
		t[0], t[1], t[2], t[3] = sqL2Sq4(x, lo, step,
			code(ids[i]), code(ids[min(i+1, last)]), code(ids[min(i+2, last)]), code(ids[min(i+3, last)]))
		copy(out[i:], t[:])
	}
}

func sqL2Sq4(x, lo, step []float32, c0, c1, c2, c3 []byte) (d0, d1, d2, d3 float32) {
	n := len(x)
	lo, step = lo[:n:n], step[:n:n]
	_, _, _, _ = c0[n-1], c1[n-1], c2[n-1], c3[n-1]
	d0, d1, d2, d3 = sqL2Sq4SSE(&x[0], &lo[0], &step[0], &c0[0], &c1[0], &c2[0], &c3[0], n)
	for j := n &^ 3; j < n; j++ {
		t := x[j] - (lo[j] + float32(c0[j])*step[j])
		d0 += t * t
		t = x[j] - (lo[j] + float32(c1[j])*step[j])
		d1 += t * t
		t = x[j] - (lo[j] + float32(c2[j])*step[j])
		d2 += t * t
		t = x[j] - (lo[j] + float32(c3[j])*step[j])
		d3 += t * t
	}
	return d0, d1, d2, d3
}

// l2sqLanes scores the len(out)/4 whole groups of block.
func l2sqLanes(x, block, out []float32) {
	d := len(x)
	if d == 0 || len(out) == 0 {
		l2sqLanesGo(x, block, out)
		return
	}
	_ = block[len(out)*d-1]
	l2sqLanesSSE(&x[0], &block[0], &out[0], d, len(out)/4)
}

// l2sqLaneRowsSSE writes the eight lane distances of each pair of groups;
// nearestLaneSSE keeps each lane's first minimum over the groups and its
// row, for firstMin to fold. Both run one pair body (kernels_amd64.s) and
// need d >= 1.
//
//go:noescape
func l2sqLaneRowsSSE(x, block, out *float32, d, pairs int)

//go:noescape
func nearestLaneSSE(x, block *float32, d, pairs int, best *float32, idx *int32)

// l2sqLaneRows scores the len(out)/8 whole pairs of groups of block.
func l2sqLaneRows(x, block, out []float32) {
	d := len(x)
	if d == 0 || len(out) == 0 {
		l2sqLaneRowsGo(x, block, out)
		return
	}
	_ = block[len(out)*d-1]
	l2sqLaneRowsSSE(&x[0], &block[0], &out[0], d, len(out)/8)
}

// nearestLane scans the (k+7)/8 pairs of groups of block, whose padding
// lanes repeat row k-1 and so lose every tie to it.
func nearestLane(x, block []float32, k int) int {
	d := len(x)
	if d == 0 {
		return nearestLaneGo(x, block, k)
	}
	var best [4]float32
	var idx [4]int32
	pairs := (k + 7) / 8
	_ = block[pairs*8*d-1]
	nearestLaneSSE(&x[0], &block[0], d, pairs, &best[0], &idx[0])
	return firstMin(best, idx)
}

// firstMin folds the per-lane minima of a nearest-lane scan: each lane holds
// its own first minimum (value and row), so the smallest value wins and a
// tie goes to the lower row. Lanes that found nothing hold (+Inf, 0).
func firstMin(best [4]float32, idx [4]int32) int {
	bi, bd := idx[0], best[0]
	for l := 1; l < 4; l++ {
		if best[l] < bd || (best[l] == bd && idx[l] < bi) {
			bi, bd = idx[l], best[l]
		}
	}
	return int(bi)
}
