// Pure-Go distance kernels: the portable implementations behind Dot/L2Sq and
// the batch API, and the bit-exact reference the assembly kernels are tested
// against.
//
// Reduction-order contract (load-bearing — see DESIGN.md "Kernels &
// scratch buffers"): every kernel, scalar or batch, Go or assembly, computes
// a dot product (or squared distance) with exactly four partial accumulators
// s0..s3, where s_j sums the terms of elements j, j+4, j+8, ... in index
// order, reduced as ((s0+s1)+s2)+s3, with any remainder elements (len%4)
// folded in afterwards one at a time. Float addition is not associative, so
// this fixed order is what makes the scalar path, the 8-way unrolled
// dimension-specialised path, the 4-row interleaved batch path and the SSE
// path all produce bit-identical float32 results — and bit-identical results
// are what keep recorded executions, golden files and pre-built index assets
// stable across kernel changes.
package vec

import "math"

// dotGo is the portable dot product. Dimensions that are a multiple of 8
// (every common embedding dim: 96, 128, 384, 768, 1536) take the 8-way
// unrolled kernel; everything else takes the 4-way loop with a scalar tail.
func dotGo(a, b []float32) float32 {
	if len(a) >= 8 && len(a)%8 == 0 {
		return dot8(a, b)
	}
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// dot8 is the 8-way unrolled kernel for len%8==0: two 4-element groups per
// iteration feed the same four accumulators in group order, which is exactly
// the order the 4-way loop uses.
func dot8(a, b []float32) float32 {
	b = b[:len(a):len(a)]
	var s0, s1, s2, s3 float32
	for i := 0; i+8 <= len(a); i += 8 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
		s0 += a[i+4] * b[i+4]
		s1 += a[i+5] * b[i+5]
		s2 += a[i+6] * b[i+6]
		s3 += a[i+7] * b[i+7]
	}
	return s0 + s1 + s2 + s3
}

// l2sqGo is the portable squared Euclidean distance, mirroring dotGo.
func l2sqGo(a, b []float32) float32 {
	if len(a) >= 8 && len(a)%8 == 0 {
		return l2sq8(a, b)
	}
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	s := s0 + s1 + s2 + s3
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// l2sq8 is the 8-way unrolled kernel for len%8==0 (see dot8).
func l2sq8(a, b []float32) float32 {
	b = b[:len(a):len(a)]
	var s0, s1, s2, s3 float32
	for i := 0; i+8 <= len(a); i += 8 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		d0 = a[i+4] - b[i+4]
		d1 = a[i+5] - b[i+5]
		d2 = a[i+6] - b[i+6]
		d3 = a[i+7] - b[i+7]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	return s0 + s1 + s2 + s3
}

// dot4Go computes four dot products of q against r0..r3 in one interleaved
// pass, each bit-identical to dotGo(q, r_i). Sharing the pass amortises the
// query loads and gives the CPU sixteen independent accumulator chains.
func dot4Go(q, r0, r1, r2, r3 []float32) (d0, d1, d2, d3 float32) {
	n := len(q)
	r0 = r0[:n:n]
	r1 = r1[:n:n]
	r2 = r2[:n:n]
	r3 = r3[:n:n]
	var a0, a1, a2, a3 float32
	var b0, b1, b2, b3 float32
	var c0, c1, c2, c3 float32
	var e0, e1, e2, e3 float32
	i := 0
	for ; i+4 <= n; i += 4 {
		q0, q1, q2, q3 := q[i], q[i+1], q[i+2], q[i+3]
		a0 += q0 * r0[i]
		a1 += q1 * r0[i+1]
		a2 += q2 * r0[i+2]
		a3 += q3 * r0[i+3]
		b0 += q0 * r1[i]
		b1 += q1 * r1[i+1]
		b2 += q2 * r1[i+2]
		b3 += q3 * r1[i+3]
		c0 += q0 * r2[i]
		c1 += q1 * r2[i+1]
		c2 += q2 * r2[i+2]
		c3 += q3 * r2[i+3]
		e0 += q0 * r3[i]
		e1 += q1 * r3[i+1]
		e2 += q2 * r3[i+2]
		e3 += q3 * r3[i+3]
	}
	d0 = a0 + a1 + a2 + a3
	d1 = b0 + b1 + b2 + b3
	d2 = c0 + c1 + c2 + c3
	d3 = e0 + e1 + e2 + e3
	for ; i < n; i++ {
		d0 += q[i] * r0[i]
		d1 += q[i] * r1[i]
		d2 += q[i] * r2[i]
		d3 += q[i] * r3[i]
	}
	return d0, d1, d2, d3
}

// dotFused3Go computes a·b, a·a and b·b in one pass. Each product keeps its
// own four accumulators in the standard order, so all three results are
// bit-identical to separate dotGo calls.
func dotFused3Go(a, b []float32) (ab, aa, bb float32) {
	n := len(a)
	b = b[:n:n]
	var p0, p1, p2, p3 float32
	var q0, q1, q2, q3 float32
	var r0, r1, r2, r3 float32
	i := 0
	for ; i+4 <= n; i += 4 {
		a0, a1, a2, a3 := a[i], a[i+1], a[i+2], a[i+3]
		b0, b1, b2, b3 := b[i], b[i+1], b[i+2], b[i+3]
		p0 += a0 * b0
		p1 += a1 * b1
		p2 += a2 * b2
		p3 += a3 * b3
		q0 += a0 * a0
		q1 += a1 * a1
		q2 += a2 * a2
		q3 += a3 * a3
		r0 += b0 * b0
		r1 += b1 * b1
		r2 += b2 * b2
		r3 += b3 * b3
	}
	ab = p0 + p1 + p2 + p3
	aa = q0 + q1 + q2 + q3
	bb = r0 + r1 + r2 + r3
	for ; i < n; i++ {
		ab += a[i] * b[i]
		aa += a[i] * a[i]
		bb += b[i] * b[i]
	}
	return ab, aa, bb
}

// l2sq4Go computes four squared Euclidean distances of q against r0..r3 in
// one interleaved pass, each bit-identical to l2sqGo(q, r_i).
func l2sq4Go(q, r0, r1, r2, r3 []float32) (d0, d1, d2, d3 float32) {
	n := len(q)
	r0 = r0[:n:n]
	r1 = r1[:n:n]
	r2 = r2[:n:n]
	r3 = r3[:n:n]
	var a0, a1, a2, a3 float32
	var b0, b1, b2, b3 float32
	var c0, c1, c2, c3 float32
	var e0, e1, e2, e3 float32
	i := 0
	for ; i+4 <= n; i += 4 {
		q0, q1, q2, q3 := q[i], q[i+1], q[i+2], q[i+3]
		t0 := q0 - r0[i]
		t1 := q1 - r0[i+1]
		t2 := q2 - r0[i+2]
		t3 := q3 - r0[i+3]
		a0 += t0 * t0
		a1 += t1 * t1
		a2 += t2 * t2
		a3 += t3 * t3
		t0 = q0 - r1[i]
		t1 = q1 - r1[i+1]
		t2 = q2 - r1[i+2]
		t3 = q3 - r1[i+3]
		b0 += t0 * t0
		b1 += t1 * t1
		b2 += t2 * t2
		b3 += t3 * t3
		t0 = q0 - r2[i]
		t1 = q1 - r2[i+1]
		t2 = q2 - r2[i+2]
		t3 = q3 - r2[i+3]
		c0 += t0 * t0
		c1 += t1 * t1
		c2 += t2 * t2
		c3 += t3 * t3
		t0 = q0 - r3[i]
		t1 = q1 - r3[i+1]
		t2 = q2 - r3[i+2]
		t3 = q3 - r3[i+3]
		e0 += t0 * t0
		e1 += t1 * t1
		e2 += t2 * t2
		e3 += t3 * t3
	}
	d0 = a0 + a1 + a2 + a3
	d1 = b0 + b1 + b2 + b3
	d2 = c0 + c1 + c2 + c3
	d3 = e0 + e1 + e2 + e3
	for ; i < n; i++ {
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

// dotRowsGo writes Dot(q, row_i) into out[i] for the len(out) rows packed
// row-major in rows, four rows per dot4Go pass; len(out) is a multiple of
// four. It is the portable form of the packed-rows assembly kernel.
func dotRowsGo(q, rows, out []float32) {
	d := len(q)
	for i := 0; i < len(out); i += 4 {
		b := i * d
		out[i], out[i+1], out[i+2], out[i+3] = dot4Go(q,
			rows[b:b+d:b+d], rows[b+d:b+2*d:b+2*d],
			rows[b+2*d:b+3*d:b+3*d], rows[b+3*d:b+4*d:b+4*d])
	}
}

// l2sqRowsGo is dotRowsGo for L2Sq.
func l2sqRowsGo(q, rows, out []float32) {
	d := len(q)
	for i := 0; i < len(out); i += 4 {
		b := i * d
		out[i], out[i+1], out[i+2], out[i+3] = l2sq4Go(q,
			rows[b:b+d:b+d], rows[b+d:b+2*d:b+2*d],
			rows[b+2*d:b+3*d:b+3*d], rows[b+3*d:b+4*d:b+4*d])
	}
}

// l2sqLaneRowsGo is the portable L2SqLaneBatch over whole groups (len(out)
// is a multiple of four): l2sqGo's accumulators and expression shapes per
// lane, reading the lane's values at stride four.
func l2sqLaneRowsGo(x, block, out []float32) {
	d := len(x)
	for i := range out {
		g := block[i/4*4*d:][:4*d]
		l := i % 4
		var s0, s1, s2, s3 float32
		j := 0
		for ; j+4 <= d; j += 4 {
			d0 := x[j] - g[4*j+l]
			d1 := x[j+1] - g[4*j+4+l]
			d2 := x[j+2] - g[4*j+8+l]
			d3 := x[j+3] - g[4*j+12+l]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		s := s0 + s1 + s2 + s3
		for ; j < d; j++ {
			t := x[j] - g[4*j+l]
			s += t * t
		}
		out[i] = s
	}
}

// nearestLaneGo is the portable NearestLane: the lane distances of each
// group, then the scalar first-minimum scan over the real rows.
func nearestLaneGo(x, block []float32, k int) int {
	d := len(x)
	best, bestD := 0, float32(math.Inf(1))
	var t [4]float32
	for lo := 0; lo < k; lo += 4 {
		l2sqLaneRowsGo(x, block[lo*d:(lo+4)*d], t[:])
		for l, v := range t[:min(4, k-lo)] {
			if v < bestD {
				best, bestD = lo+l, v
			}
		}
	}
	return best
}
