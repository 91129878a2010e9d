//go:build amd64 && !purego

package vec

// The SSE kernels process the d&^3 prefix of each row; the wrappers below
// fold the remainder elements in afterwards, matching the scalar kernels'
// order (remainder added one at a time after the ((s0+s1)+s2)+s3 reduction).
// They require d >= 4: shorter rows take the Go kernels.

func dot4SSE(q, r0, r1, r2, r3 *float32, n int) (d0, d1, d2, d3 float32)
func l2sq4SSE(q, r0, r1, r2, r3 *float32, n int) (d0, d1, d2, d3 float32)

// dotRowsSSE and l2sqRowsSSE score groups consecutive groups of four packed
// d-float rows against q, writing four results per group to out.
func dotRowsSSE(q, rows, out *float32, d, groups int)
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
