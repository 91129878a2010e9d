package vec

import (
	"math"
	"math/rand"
	"testing"
)

// scanNearest is the scalar first-minimum scan the lane kernels replace:
// L2Sq per row in row order, strict <, from (0, +Inf).
func scanNearest(x, rows []float32, k int) int {
	d := len(x)
	best, bestD := 0, float32(math.Inf(1))
	for i := 0; i < k; i++ {
		if v := L2Sq(x, rows[i*d:(i+1)*d]); v < bestD {
			best, bestD = i, v
		}
	}
	return best
}

// laneRows fills k rows of dim d for one case of the lane-kernel tests. The
// case picks the alphabet: Gaussian values, or values from {-1, -0, 0, 1} so
// that distances tie exactly, with repeated rows, an all-zero row, and rows
// holding +Inf or NaN mixed in.
func laneRows(r *rand.Rand, k, d, c int) []float32 {
	alphabet := []float32{-1, float32(math.Copysign(0, -1)), 0, 1}
	rows := make([]float32, k*d)
	for i := range rows {
		if c%2 == 0 {
			rows[i] = float32(r.NormFloat64())
		} else {
			rows[i] = alphabet[r.Intn(len(alphabet))]
		}
	}
	for i := 0; i < k; i++ {
		row := rows[i*d : (i+1)*d]
		switch r.Intn(8) {
		case 0:
			if i > 0 {
				copy(row, rows[r.Intn(i)*d:])
			}
		case 1:
			row[r.Intn(d)] = float32(math.Inf(1))
		case 2:
			if c%3 == 0 {
				row[r.Intn(d)] = float32(math.NaN())
			}
		case 3:
			for j := range row {
				row[j] = 0
			}
		}
	}
	return rows
}

// TestLaneKernelsMatchScalar is the lane contract over every shape the
// kernels branch on: d in 1..72 (below four the remainder is the whole row,
// otherwise d%4 folds in after the reduction) and K in 1..9 plus group and
// codebook boundaries up to 300 (K%4 ≠ 0 pads the last group). Every
// L2SqLaneBatch entry must carry the bits of L2Sq, and NearestLane must
// return what the scalar scan returns, on ties, ±0, +Inf and NaN rows.
func TestLaneKernelsMatchScalar(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	ks := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 64, 65, 199, 255, 256, 257, 299, 300}
	var block []float32
	c := 0
	for d := 1; d <= 72; d++ {
		for _, k := range ks {
			c++
			rows := laneRows(r, k, d, c)
			block = PackLanes(block, rows, d)
			x := laneRows(r, 1, d, c)
			if c%5 == 0 {
				copy(x, rows[r.Intn(k)*d:][:d])
			}
			out := make([]float32, k)
			L2SqLaneBatch(x, block, out)
			for i, got := range out {
				if want := L2Sq(x, rows[i*d:(i+1)*d]); !sameBits(got, want) {
					t.Fatalf("d=%d K=%d row %d: lane distance %v (%08x), L2Sq %v (%08x)", d, k, i, got, math.Float32bits(got), want, math.Float32bits(want))
				}
			}
			if got, want := NearestLane(x, block, k), scanNearest(x, rows, k); got != want {
				t.Fatalf("d=%d K=%d: NearestLane %d, scalar scan %d", d, k, got, want)
			}
		}
	}
}

// TestNearestLaneNothingBelowInf: when no row scores below +Inf the answer is
// row 0, whatever the padding lanes hold.
func TestNearestLaneNothingBelowInf(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	for _, d := range []int{1, 3, 4, 8, 10} {
		for _, k := range []int{1, 2, 5, 8} {
			for _, v := range []float32{inf, nan} {
				rows := make([]float32, k*d)
				for i := range rows {
					rows[i] = v
				}
				x := make([]float32, d)
				if got := NearestLane(x, PackLanes(nil, rows, d), k); got != 0 {
					t.Errorf("d=%d K=%d rows of %v: NearestLane %d, want 0", d, k, v, got)
				}
			}
		}
	}
}

func TestLaneKernelsZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, d := range []int{8, 10, 768} {
		rows := laneRows(r, 57, d, 0)
		block := PackLanes(nil, rows, d)
		x := randVec(r, d)
		out := make([]float32, 57)
		if n := testing.AllocsPerRun(20, func() { L2SqLaneBatch(x, block, out) }); n != 0 {
			t.Errorf("d=%d: L2SqLaneBatch allocates %v/op", d, n)
		}
		if n := testing.AllocsPerRun(20, func() { NearestLane(x, block, 57) }); n != 0 {
			t.Errorf("d=%d: NearestLane allocates %v/op", d, n)
		}
		if n := testing.AllocsPerRun(20, func() { block = PackLanes(block, rows, d) }); n != 0 {
			t.Errorf("d=%d: PackLanes into a large enough block allocates %v/op", d, n)
		}
	}
}

// nearestSink keeps the benchmarked argmins live.
var nearestSink int

// BenchmarkNearestLane prices one point against K rows, per pair, beside the
// row-major batch kernel plus a scalar argmin it replaces in k-means.
func BenchmarkNearestLane(b *testing.B) {
	r := rand.New(rand.NewSource(25))
	for _, shape := range []struct {
		name string
		d, k int
	}{{"d8k256", 8, 256}, {"d768k56", 768, 56}} {
		rows := laneRows(r, shape.k, shape.d, 0)
		block := PackLanes(nil, rows, shape.d)
		x := randVec(r, shape.d)
		out := make([]float32, shape.k)
		b.Run(shape.name+"/lanes", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				nearestSink = NearestLane(x, block, shape.k)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*shape.k), "ns/pair")
		})
		b.Run(shape.name+"/rows", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				L2SqBatch(x, rows, out)
				best, bestD := 0, float32(math.Inf(1))
				for j, v := range out {
					if v < bestD {
						best, bestD = j, v
					}
				}
				nearestSink = best
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*shape.k), "ns/pair")
		})
	}
}

func BenchmarkPackLanes(b *testing.B) {
	r := rand.New(rand.NewSource(27))
	rows := laneRows(r, 200, 768, 0)
	block := PackLanes(nil, rows, 768)
	for i := 0; i < b.N; i++ {
		block = PackLanes(block, rows, 768)
	}
}
