package sq

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"svdbench/internal/vec"
)

func randMatrix(n, dim int, seed int64) *vec.Matrix {
	r := rand.New(rand.NewSource(seed))
	m := vec.NewMatrix(n, dim)
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = float32(r.NormFloat64())
		}
	}
	return m
}

func TestTrainEmptyFails(t *testing.T) {
	if _, err := Train(vec.NewMatrix(0, 4)); err == nil {
		t.Error("empty training accepted")
	}
}

func TestRoundTripWithinBound(t *testing.T) {
	m := randMatrix(500, 16, 1)
	q, err := Train(m)
	if err != nil {
		t.Fatal(err)
	}
	bound := q.MaxErrorBound()
	for i := 0; i < 50; i++ {
		v := m.Row(i)
		rec := q.Decode(q.Encode(v))
		for j := range v {
			if d := math.Abs(float64(v[j] - rec[j])); d > float64(bound[j])+1e-6 {
				t.Fatalf("row %d dim %d error %v exceeds bound %v", i, j, d, bound[j])
			}
		}
	}
}

func TestExtremesClamp(t *testing.T) {
	m := vec.MatrixFromRows([][]float32{{0, 0}, {1, 10}})
	q, _ := Train(m)
	// Values outside the trained range must clamp, not wrap.
	code := q.Encode([]float32{-5, 100})
	if code[0] != 0 || code[1] != 255 {
		t.Errorf("clamped code = %v", code)
	}
}

func TestConstantDimensionSafe(t *testing.T) {
	m := vec.MatrixFromRows([][]float32{{3, 1}, {3, 2}})
	q, _ := Train(m) // first dim has zero range
	code := q.Encode([]float32{3, 1.5})
	rec := q.Decode(code)
	if math.IsNaN(float64(rec[0])) || math.Abs(float64(rec[0]-3)) > 1e-5 {
		t.Errorf("constant dim decoded to %v", rec[0])
	}
}

func TestDistanceL2SqMatchesDecoded(t *testing.T) {
	m := randMatrix(200, 8, 2)
	q, _ := Train(m)
	codes := q.EncodeAll(m)
	query := m.Row(0)
	for i := 0; i < 20; i++ {
		fast := q.DistanceAt(query, codes, i)
		slow := vec.L2Sq(query, q.Decode(codes[i*q.Dim():(i+1)*q.Dim()]))
		if math.Abs(float64(fast-slow)) > 1e-3 {
			t.Fatalf("row %d: fast %v vs slow %v", i, fast, slow)
		}
	}
}

// TestKernelsMatchDistanceAt: the batch kernel (gathered codes) and the lane
// kernel (decoded lane blocks) reproduce the scalar DistanceAt bit for bit —
// over every code value at every dimension, the unrolled-by-four dims and
// their tails, a constant dimension (step 1/255), ±Inf and NaN query
// components, and id lists of every length 1–9 that repeat an id.
func TestKernelsMatchDistanceAt(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	nan := float32(math.NaN())
	for _, dim := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 37, 768, 1536} {
		m := randMatrix(64, dim, int64(dim))
		for i := 0; i < m.Len(); i++ {
			m.Row(i)[dim/2] = 3
		}
		q, err := Train(m)
		if err != nil {
			t.Fatal(err)
		}
		if q.scale[dim/2] != float32(1)/255 {
			t.Fatalf("dim %d: constant dimension has step %v", dim, q.scale[dim/2])
		}
		// 256 codes; code i holds value i+37j at dimension j, so every value
		// occurs at every dimension.
		const n = 256
		codes := make([]byte, n*dim)
		for i := 0; i < n; i++ {
			for j := 0; j < dim; j++ {
				codes[i*dim+j] = byte(i + 37*j)
			}
		}
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		var queries [][]float32
		for _, special := range []float32{0, float32(math.Inf(1)), float32(math.Inf(-1)), nan} {
			x := vec.Clone(m.Row(r.Intn(m.Len())))
			for j := range x {
				x[j] *= 1.5
			}
			if special != 0 {
				x[r.Intn(dim)] = special
			}
			queries = append(queries, x)
		}
		check := func(what string, x []float32, ids []int32, got []float32) {
			t.Helper()
			for k, id := range ids {
				if want := q.DistanceAt(x, codes, int(id)); math.Float32bits(got[k]) != math.Float32bits(want) {
					t.Fatalf("dim %d %s: code %d (entry %d of %d) = %v (%#x), DistanceAt %v (%#x)",
						dim, what, id, k, len(ids), got[k], math.Float32bits(got[k]), want, math.Float32bits(want))
				}
			}
		}
		for qi, x := range queries {
			out := make([]float32, n)
			q.DistanceBatch(x, codes, all, out)
			check(fmt.Sprintf("query %d batch of all codes", qi), x, all, out)
			for length := 1; length <= 9; length++ {
				ids := make([]int32, length)
				for k := range ids {
					ids[k] = int32(r.Intn(n))
				}
				ids[length-1] = ids[0]
				out := make([]float32, length)
				q.DistanceBatch(x, codes, ids, out)
				check(fmt.Sprintf("query %d batch of %d", qi, length), x, ids, out)
				// Padding lanes hold NaN: they must not leak into results.
				block := make([]float32, vec.LaneBlockLen(length, dim))
				for i := range block {
					block[i] = nan
				}
				for lane, id := range ids {
					q.DecodeLane(block, lane, codes, int(id))
				}
				for i := range out {
					out[i] = -1
				}
				vec.L2SqLanes(x, block, out)
				check(fmt.Sprintf("query %d lanes of %d", qi, length), x, ids, out)
			}
		}
	}
}

// Property: quantised distances preserve the near-vs-far ordering.
func TestPropertyOrderingPreserved(t *testing.T) {
	m := randMatrix(300, 16, 3)
	q, _ := Train(m)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base := m.Row(r.Intn(m.Len()))
		near := vec.Clone(base)
		for j := range near {
			near[j] += float32(r.NormFloat64() * 0.01)
		}
		far := vec.Clone(base)
		for j := range far {
			far[j] += float32(r.NormFloat64() * 2)
		}
		dn := q.DistanceL2Sq(base, q.Encode(near))
		df := q.DistanceL2Sq(base, q.Encode(far))
		return dn < df
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEncodePanicsOnWrongDim(t *testing.T) {
	m := randMatrix(10, 4, 4)
	q, _ := Train(m)
	defer func() {
		if recover() == nil {
			t.Error("no panic on wrong dim")
		}
	}()
	q.Encode(make([]float32, 2))
}

func TestMemoryBytes(t *testing.T) {
	m := randMatrix(10, 4, 5)
	q, _ := Train(m)
	if q.MemoryBytes() != 32 {
		t.Errorf("memory = %d, want 32", q.MemoryBytes())
	}
}
