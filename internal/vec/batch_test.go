package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// commonDims covers the dimension-specialised kernels (96/128/768/1536), the
// 8-way and 4-way unroll boundaries, and every remainder 1-7.
var commonDims = []int{
	1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
	31, 32, 33, 63, 64, 65, 95, 96, 97, 127, 128, 129, 768, 769, 1536,
}

// legacyDot is the pre-kernel 4-way scalar loop, kept verbatim as the
// reference the whole kernel family must stay bit-identical to: golden files
// and pre-built index assets pin floats computed by exactly this order.
func legacyDot(a, b []float32) float32 {
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

func legacyL2Sq(a, b []float32) float32 {
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

func legacyCosine(a, b []float32) float32 {
	na := float32(math.Sqrt(float64(legacyDot(a, a))))
	nb := float32(math.Sqrt(float64(legacyDot(b, b))))
	if na == 0 || nb == 0 {
		return 1
	}
	return 1 - legacyDot(a, b)/(na*nb)
}

// TestScalarKernelsMatchLegacy pins Dot/L2Sq/CosineDistance (now routed
// through the unrolled kernels) to the original scalar loops, bit for bit.
func TestScalarKernelsMatchLegacy(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, d := range commonDims {
		for rep := 0; rep < 8; rep++ {
			a, b := randVec(r, d), randVec(r, d)
			if got, want := Dot(a, b), legacyDot(a, b); got != want {
				t.Fatalf("dim %d: Dot = %x, legacy %x", d, got, want)
			}
			if got, want := L2Sq(a, b), legacyL2Sq(a, b); got != want {
				t.Fatalf("dim %d: L2Sq = %x, legacy %x", d, got, want)
			}
			if got, want := CosineDistance(a, b), legacyCosine(a, b); got != want {
				t.Fatalf("dim %d: CosineDistance = %x, legacy %x", d, got, want)
			}
		}
	}
}

// TestBatch4BitIdentity pins the 4-row kernels (SSE on amd64, interleaved Go
// elsewhere) and the pure-Go reference to the scalar path, bit for bit.
func TestBatch4BitIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for _, d := range commonDims {
		for rep := 0; rep < 8; rep++ {
			q := randVec(r, d)
			rows := [4][]float32{randVec(r, d), randVec(r, d), randVec(r, d), randVec(r, d)}
			want := [4]float32{}
			for i, row := range rows {
				want[i] = Dot(q, row)
			}
			g0, g1, g2, g3 := dot4Go(q, rows[0], rows[1], rows[2], rows[3])
			if [4]float32{g0, g1, g2, g3} != want {
				t.Fatalf("dim %d: dot4Go = %v, want %v", d, [4]float32{g0, g1, g2, g3}, want)
			}
			a0, a1, a2, a3 := Dot4(q, rows[0], rows[1], rows[2], rows[3])
			if [4]float32{a0, a1, a2, a3} != want {
				t.Fatalf("dim %d: Dot4 = %v, want %v", d, [4]float32{a0, a1, a2, a3}, want)
			}

			for i, row := range rows {
				want[i] = L2Sq(q, row)
			}
			g0, g1, g2, g3 = l2sq4Go(q, rows[0], rows[1], rows[2], rows[3])
			if [4]float32{g0, g1, g2, g3} != want {
				t.Fatalf("dim %d: l2sq4Go = %v, want %v", d, [4]float32{g0, g1, g2, g3}, want)
			}
			a0, a1, a2, a3 = L2Sq4(q, rows[0], rows[1], rows[2], rows[3])
			if [4]float32{a0, a1, a2, a3} != want {
				t.Fatalf("dim %d: L2Sq4 = %v, want %v", d, [4]float32{a0, a1, a2, a3}, want)
			}
		}
	}
}

// sameBits is the exact comparison of the kernel property tests: equal bit
// patterns, which is != on every ordinary value and also holds the kernels to
// the same NaN and signed zero when a MaxFloat32/4 row overflows.
func sameBits(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

// TestBatchBitIdentityPackedRows is the packed-rows contract over every shape
// the rows kernels branch on: each d in 1..40 (d < 4 takes the Go loop, d%4
// the scalar element tail) plus commonDims, each n in 0..19 (n%4 rides tail4,
// n < 4 never enters the rows kernel) plus 256. L2SqBatch, DotBatch,
// DistanceBatch under all three metrics and CosineDistanceBatch must equal
// the scalar L2Sq/Dot/Distance per row, bit for bit, on inputs with negative
// values, zeros and one row of MaxFloat32/4.
func TestBatchBitIdentityPackedRows(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	var dims []int
	for d := 1; d <= 40; d++ {
		dims = append(dims, d)
	}
	for _, d := range commonDims {
		if d > 40 {
			dims = append(dims, d)
		}
	}
	var counts []int
	for n := 0; n <= 19; n++ {
		counts = append(counts, n)
	}
	counts = append(counts, 256)
	for _, d := range dims {
		for _, n := range counts {
			q := randVec(r, d)
			q[r.Intn(d)] = 0
			m := NewMatrix(n, d)
			rows := m.Raw()
			for i := range rows {
				rows[i] = float32(r.NormFloat64())
			}
			if n > 0 {
				big := m.Row(r.Intn(n))
				for j := range big {
					big[j] = math.MaxFloat32 / 4
				}
			}
			if n > 1 {
				clear(m.Row(r.Intn(n))[:1+r.Intn(d)]) // zeros inside a row
			}
			out := make([]float32, n)

			L2SqBatch(q, rows, out)
			for i := 0; i < n; i++ {
				if want := L2Sq(q, m.Row(i)); !sameBits(out[i], want) {
					t.Fatalf("dim %d n %d row %d: L2SqBatch = %x, want %x", d, n, i, out[i], want)
				}
			}
			DotBatch(q, rows, out)
			for i := 0; i < n; i++ {
				if want := Dot(q, m.Row(i)); !sameBits(out[i], want) {
					t.Fatalf("dim %d n %d row %d: DotBatch = %x, want %x", d, n, i, out[i], want)
				}
			}
			for _, metric := range []Metric{L2, IP, Cosine} {
				DistanceBatch(metric, q, rows, out)
				for i := 0; i < n; i++ {
					if want := Distance(metric, q, m.Row(i)); !sameBits(out[i], want) {
						t.Fatalf("dim %d n %d row %d metric %v: DistanceBatch = %x, want %x", d, n, i, metric, out[i], want)
					}
				}
			}
			CosineDistanceBatch(q, Norm(q), rows, Norms(m), out)
			for i := 0; i < n; i++ {
				if want := Distance(Cosine, q, m.Row(i)); !sameBits(out[i], want) {
					t.Fatalf("dim %d n %d row %d: CosineDistanceBatch = %x, want %x", d, n, i, out[i], want)
				}
			}
		}
	}
}

// TestBatchEmpty: zero rows is a no-op for every batch entry point (the rows
// kernels must not take &rows[0] of an empty slice), with or without a query.
func TestBatchEmpty(t *testing.T) {
	for _, q := range [][]float32{nil, make([]float32, 8)} {
		L2SqBatch(q, nil, nil)
		DotBatch(q, nil, nil)
		for _, metric := range []Metric{L2, IP, Cosine} {
			DistanceBatch(metric, q, nil, nil)
		}
		CosineDistanceBatch(q, 0, nil, nil, nil)
	}
}

// TestBatchRandomDims drives random (dim, rows) shapes, including remainders
// 1-7 in both dimension and row count.
func TestBatchRandomDims(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for rep := 0; rep < 300; rep++ {
		d := 1 + r.Intn(200)
		n := r.Intn(13)
		q := randVec(r, d)
		rows := make([]float32, n*d)
		for i := range rows {
			rows[i] = float32(r.NormFloat64())
		}
		out := make([]float32, n)
		m := Metric(r.Intn(3))
		DistanceBatch(m, q, rows, out)
		for i := 0; i < n; i++ {
			if want := Distance(m, q, rows[i*d:(i+1)*d]); out[i] != want {
				t.Fatalf("dim %d n %d row %d metric %v: DistanceBatch = %x, want %x", d, n, i, m, out[i], want)
			}
		}
	}
}

func TestCosineBatchZeroVectors(t *testing.T) {
	d := 8
	zero := make([]float32, d)
	rows := make([]float32, 3*d)
	for i := d; i < 2*d; i++ {
		rows[i] = 1 // middle row non-zero, first and last rows zero
	}
	out := make([]float32, 3)
	DistanceBatch(Cosine, zero, rows, out)
	for i, got := range out {
		if got != 1 {
			t.Errorf("zero query row %d: got %v, want 1", i, got)
		}
	}
	q := make([]float32, d)
	q[0] = 2
	DistanceBatch(Cosine, q, rows, out)
	if out[0] != 1 || out[2] != 1 {
		t.Errorf("zero rows: got %v, want 1 at rows 0 and 2", out)
	}
	if want := CosineDistance(q, rows[d:2*d]); out[1] != want {
		t.Errorf("non-zero row: got %v, want %v", out[1], want)
	}
}

// TestCosineCachedNormsBitIdentity is the norm contract: scoring packed rows
// with precomputed norms (Norms + CosineDistanceBatch) is bit-identical to
// scalar Distance(Cosine, q, row) for every dimension and every row-count
// remainder, including a zero query and zero rows (distance exactly 1).
func TestCosineCachedNormsBitIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, d := range commonDims {
		for n := 0; n <= 9; n++ {
			m := NewMatrix(n, d)
			for i := range m.Raw() {
				m.Raw()[i] = float32(r.NormFloat64())
			}
			if n > 2 {
				clear(m.Row(n - 2)) // a zero row inside the batch
			}
			norms := Norms(m)
			out := make([]float32, n)
			for _, q := range [][]float32{randVec(r, d), make([]float32, d)} {
				CosineDistanceBatch(q, Norm(q), m.Raw(), norms, out)
				for i := 0; i < n; i++ {
					if want := Distance(Cosine, q, m.Row(i)); out[i] != want {
						t.Fatalf("dim %d n %d row %d: cached-norm cosine = %x, scalar %x", d, n, i, out[i], want)
					}
				}
			}
		}
	}
}

func TestBatchLengthMismatchPanics(t *testing.T) {
	cases := []func(){
		func() { DotBatch(make([]float32, 4), make([]float32, 9), make([]float32, 2)) },
		func() { L2SqBatch(make([]float32, 4), make([]float32, 9), make([]float32, 2)) },
		func() { DistanceBatch(Cosine, make([]float32, 4), make([]float32, 9), make([]float32, 2)) },
		func() {
			CosineDistanceBatch(make([]float32, 4), 1, make([]float32, 8), make([]float32, 3), make([]float32, 2))
		},
		func() {
			Dot4(make([]float32, 4), make([]float32, 4), make([]float32, 3), make([]float32, 4), make([]float32, 4))
		},
		func() {
			L2Sq4(make([]float32, 4), make([]float32, 5), make([]float32, 4), make([]float32, 4), make([]float32, 4))
		},
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic on mismatched lengths", i)
				}
			}()
			f()
		}()
	}
}

// TestBatchKernelsZeroAlloc: the batch entry points must not allocate — they
// sit inside the zero-alloc search hot path.
func TestBatchKernelsZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	q := randVec(r, 768)
	rows := make([]float32, 16*768)
	for i := range rows {
		rows[i] = float32(r.NormFloat64())
	}
	out := make([]float32, 16)
	for _, m := range []Metric{L2, IP, Cosine} {
		m := m
		if n := testing.AllocsPerRun(20, func() { DistanceBatch(m, q, rows, out) }); n != 0 {
			t.Errorf("DistanceBatch(%v) allocates %v/op", m, n)
		}
	}
	norms := make([]float32, 16)
	if n := testing.AllocsPerRun(20, func() { CosineDistanceBatch(q, 1, rows, norms, out) }); n != 0 {
		t.Errorf("CosineDistanceBatch allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(20, func() { CosineDistance(q, rows[:768]) }); n != 0 {
		t.Errorf("CosineDistance allocates %v/op", n)
	}
}

func benchDims(b *testing.B, f func(b *testing.B, d int)) {
	for _, d := range []int{96, 128, 768, 1536} {
		d := d
		b.Run(map[int]string{96: "96", 128: "128", 768: "768", 1536: "1536"}[d], func(b *testing.B) {
			f(b, d)
		})
	}
}

func BenchmarkDotDims(b *testing.B) {
	benchDims(b, func(b *testing.B, d int) {
		r := rand.New(rand.NewSource(1))
		x, y := randVec(r, d), randVec(r, d)
		b.SetBytes(int64(8 * d))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = Dot(x, y)
		}
	})
}

func BenchmarkL2SqDims(b *testing.B) {
	benchDims(b, func(b *testing.B, d int) {
		r := rand.New(rand.NewSource(1))
		x, y := randVec(r, d), randVec(r, d)
		b.SetBytes(int64(8 * d))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = L2Sq(x, y)
		}
	})
}

func BenchmarkCosineDims(b *testing.B) {
	benchDims(b, func(b *testing.B, d int) {
		r := rand.New(rand.NewSource(1))
		x, y := randVec(r, d), randVec(r, d)
		b.SetBytes(int64(8 * d))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = CosineDistance(x, y)
		}
	})
}

// benchBatch times one batch call over 256 packed rows at the PQ sub-vector
// shape (d8: 8-d rows, where per-group overhead dominates) and at the
// embedding dims (long rows, where the inner loop does).
func benchBatch(b *testing.B, batch func(q, rows, out []float32)) {
	const n = 256
	for _, d := range []int{8, 96, 128, 768, 1536} {
		b.Run(fmt.Sprintf("d%dn%d", d, n), func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			q := randVec(r, d)
			rows := make([]float32, n*d)
			for i := range rows {
				rows[i] = float32(r.NormFloat64())
			}
			out := make([]float32, n)
			b.SetBytes(int64(4 * d * n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch(q, rows, out)
			}
		})
	}
}

func BenchmarkDotBatch(b *testing.B) { benchBatch(b, DotBatch) }

func BenchmarkL2SqBatch(b *testing.B) { benchBatch(b, L2SqBatch) }
