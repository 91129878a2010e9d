package pq

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
		vec.Normalize(row)
	}
	return m
}

func TestTrainRejectsBadArgs(t *testing.T) {
	m := randMatrix(10, 16, 1)
	if _, err := Train(m, 5, 1); err == nil {
		t.Error("dim 16 with m=5 accepted")
	}
	if _, err := Train(vec.NewMatrix(0, 16), 4, 1); err == nil {
		t.Error("empty training set accepted")
	}
}

func TestEncodeDecodeReducesError(t *testing.T) {
	m := randMatrix(800, 32, 2)
	q, err := Train(m, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruction error must be far below the vector norm (≈1).
	var errSum float64
	for i := 0; i < 100; i++ {
		v := m.Row(i)
		rec := q.Decode(q.Encode(v))
		errSum += math.Sqrt(float64(vec.L2Sq(v, rec)))
	}
	mean := errSum / 100
	if mean > 0.6 {
		t.Errorf("mean reconstruction error %.3f too high", mean)
	}
}

func TestCodeShape(t *testing.T) {
	m := randMatrix(300, 16, 3)
	q, _ := Train(m, 4, 1)
	code := q.Encode(m.Row(0))
	if len(code) != 4 {
		t.Errorf("code length = %d, want 4", len(code))
	}
	all := q.EncodeAll(m)
	if len(all) != 300*4 {
		t.Fatalf("EncodeAll length = %d", len(all))
	}
	for i := 0; i < m.Len(); i++ {
		if want := q.Encode(m.Row(i)); !bytes.Equal(all[i*4:(i+1)*4], want) {
			t.Fatalf("row %d: packed code %v, Encode %v", i, all[i*4:(i+1)*4], want)
		}
	}
	if q.M() != 4 || q.Dim() != 16 {
		t.Errorf("M=%d Dim=%d", q.M(), q.Dim())
	}
}

func TestADCMatchesDecodedDistance(t *testing.T) {
	m := randMatrix(400, 24, 4)
	q, _ := Train(m, 6, 1)
	query := m.Row(0)
	table := q.BuildTable(query)
	for i := 10; i < 20; i++ {
		code := q.Encode(m.Row(i))
		adc := table.Distance(code)
		exact := vec.L2Sq(query, q.Decode(code))
		if math.Abs(float64(adc-exact)) > 1e-3 {
			t.Fatalf("row %d: ADC %v vs decoded %v", i, adc, exact)
		}
	}
}

// TestDistanceRowsMatchesDistance: the four-chain batch ADC reproduces
// Distance bit for bit on tables from real BuildTable calls — under-trained
// codebooks (ksub < 256), every sub-space count class, row counts 0–9 and 64
// (the four-row body and every remainder), repeated rows, and row sets that
// are not a prefix of the code array.
func TestDistanceRowsMatchesDistance(t *testing.T) {
	const n = 80
	for _, ksub := range []int{3, 17, 256} {
		for _, m := range []int{1, 2, 3, 8, 48, 96} {
			// ksub distinct training rows train exactly ksub centroids;
			// the n encoded rows are drawn apart from them.
			quant, err := Train(randMatrix(ksub, m*2, int64(ksub*1000+m)), m, 1)
			if err != nil {
				t.Fatal(err)
			}
			if quant.ksub != ksub {
				t.Fatalf("ksub %d m %d: trained %d centroids", ksub, m, quant.ksub)
			}
			codes := quant.EncodeAll(randMatrix(n, m*2, int64(m)))
			table := quant.BuildTable(randMatrix(1, m*2, 7).Row(0))
			r := rand.New(rand.NewSource(int64(ksub + m)))
			for _, count := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 64} {
				rows := make([]int32, count)
				for i := range rows {
					rows[i] = int32(r.Intn(n))
				}
				if count >= 3 {
					rows[count-1] = rows[0] // a repeat inside the set
					rows[1] = n - 1         // the last code of the array
				}
				out := make([]float32, count+1)
				out[count] = -1 // must stay untouched
				table.DistanceRows(codes, m, rows, out[:count])
				for i, row := range rows {
					want := table.Distance(codes[int(row)*m : (int(row)+1)*m])
					if math.Float32bits(out[i]) != math.Float32bits(want) {
						t.Fatalf("ksub %d m %d rows %d: entry %d (row %d) = %v (%#x), Distance %v (%#x)",
							ksub, m, count, i, row, out[i], math.Float32bits(out[i]), want, math.Float32bits(want))
					}
				}
				if out[count] != -1 {
					t.Fatalf("ksub %d m %d rows %d: wrote past the row count", ksub, m, count)
				}
			}
		}
	}
}

// Property: ADC distance correlates with true distance well enough that the
// nearest of {near duplicate, random far vector} is always ranked first.
func TestPropertyADCRanksNearVsFar(t *testing.T) {
	m := randMatrix(600, 32, 6)
	q, _ := Train(m, 8, 1)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base := m.Row(r.Intn(m.Len()))
		near := vec.Clone(base)
		for j := range near {
			near[j] += float32(r.NormFloat64() * 0.01)
		}
		far := make([]float32, len(base))
		for j := range far {
			far[j] = float32(r.NormFloat64())
		}
		vec.Normalize(far)
		table := q.BuildTable(base)
		return table.Distance(q.Encode(near)) < table.Distance(q.Encode(far))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTrainDeterministic(t *testing.T) {
	m := randMatrix(200, 16, 7)
	a, _ := Train(m, 4, 42)
	b, _ := Train(m, 4, 42)
	va := a.Encode(m.Row(5))
	vb := b.Encode(m.Row(5))
	for i := range va {
		if va[i] != vb[i] {
			t.Fatal("same seed produced different codes")
		}
	}
}

func TestEncodePanicsOnWrongDim(t *testing.T) {
	m := randMatrix(100, 16, 8)
	q, _ := Train(m, 4, 1)
	defer func() {
		if recover() == nil {
			t.Error("no panic on wrong dim")
		}
	}()
	q.Encode(make([]float32, 8))
}

func TestMemoryBytes(t *testing.T) {
	m := randMatrix(400, 16, 9)
	q, _ := Train(m, 4, 1)
	want := int64(4) * 256 * 4 * 4 // m × 256 × subDim × sizeof(float32)
	if q.MemoryBytes() != want {
		t.Errorf("memory = %d, want %d", q.MemoryBytes(), want)
	}
}

// TestBuildTableMatchesScalarLoop: BuildTableInto is the per-centroid scalar
// vec.L2Sq loop, bit for bit, at every shape the batch kernel branches on —
// under-trained codebooks (ksub 1, 3, 5, 255 ride the n%4 row tail) and
// sub-vector widths below, at and between the kernel's 4-float steps.
func TestBuildTableMatchesScalarLoop(t *testing.T) {
	for _, ksub := range []int{1, 3, 5, 255, 256} {
		for _, subDim := range []int{1, 2, 4, 6, 8, 12} {
			const m = 3
			// ksub distinct training rows train exactly ksub centroids.
			quant, err := Train(randMatrix(ksub, m*subDim, int64(ksub*100+subDim)), m, 1)
			if err != nil {
				t.Fatal(err)
			}
			if quant.ksub != ksub {
				t.Fatalf("ksub %d subDim %d: trained %d centroids", ksub, subDim, quant.ksub)
			}
			queries := randMatrix(4, m*subDim, 99)
			var table Table
			for qi := 0; qi < queries.Len(); qi++ {
				query := queries.Row(qi)
				table = quant.BuildTableInto(query, table)
				for s := 0; s < m; s++ {
					sub := query[s*subDim : (s+1)*subDim]
					for c := 0; c < ksub; c++ {
						got := table[s*centroidsPerSub+c]
						want := vec.L2Sq(sub, quant.codebooks[s].Row(c))
						if math.Float32bits(got) != math.Float32bits(want) {
							t.Fatalf("ksub %d subDim %d sub-space %d centroid %d: table %x, scalar %x", ksub, subDim, s, c, got, want)
						}
					}
				}
			}
		}
	}
}

// BenchmarkBuildTableInto768 is the per-query ADC table build at the 768-d
// shape DiskANN uses (96 sub-spaces x 256 centroids x 8-d).
func BenchmarkBuildTableInto768(b *testing.B) {
	data := randMatrix(500, 768, 1)
	quant, err := Train(data, 96, 1)
	if err != nil {
		b.Fatal(err)
	}
	queries := randMatrix(64, 768, 2)
	table := quant.BuildTable(queries.Row(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table = quant.BuildTableInto(queries.Row(i%queries.Len()), table)
	}
}

// BenchmarkDistanceRows is the batch ADC at the same 768-d shape: 64
// random codes priced against one table per iteration, the size of a few
// page-layout hops' admitted members.
func BenchmarkDistanceRows(b *testing.B) {
	data := randMatrix(500, 768, 1)
	quant, err := Train(data, 96, 1)
	if err != nil {
		b.Fatal(err)
	}
	codes := quant.EncodeAll(data)
	table := quant.BuildTable(randMatrix(1, 768, 2).Row(0))
	r := rand.New(rand.NewSource(3))
	rows := make([]int32, 64)
	for i := range rows {
		rows[i] = int32(r.Intn(data.Len()))
	}
	out := make([]float32, len(rows))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table.DistanceRows(codes, quant.M(), rows, out)
	}
}

func TestDefaultM(t *testing.T) {
	for dim, want := range map[int]int{1: 1, 4: 1, 6: 1, 8: 1, 16: 2, 50: 5, 100: 10, 300: 30, 768: 96, 1536: 192, 37: 1} {
		if got := DefaultM(dim); got != want {
			t.Errorf("DefaultM(%d) = %d, want %d", dim, got, want)
		}
	}
}

// TestEncodeAllMatchesEncode: the sub-space-major lane-block encoder writes
// the byte Encode's row-major scan picks, at sub-dims with and without a
// d%4 tail, with fewer than 256 centroids per sub-space, on rows with exact
// ties, and at any GOMAXPROCS.
func TestEncodeAllMatchesEncode(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, shape := range []struct{ n, dim, m int }{{300, 64, 8}, {200, 40, 4}, {90, 30, 5}} {
		data := randMatrix(shape.n, shape.dim, 3)
		for i := 1; i < shape.n; i += 7 {
			data.SetRow(i, data.Row(i-1))
		}
		quant, err := Train(data, shape.m, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, 5} {
			runtime.GOMAXPROCS(procs)
			codes := quant.EncodeAll(data)
			for i := 0; i < shape.n; i++ {
				if want := quant.Encode(data.Row(i)); !bytes.Equal(codes[i*shape.m:(i+1)*shape.m], want) {
					t.Fatalf("n=%d dim=%d m=%d procs=%d: row %d coded %v, Encode %v", shape.n, shape.dim, shape.m, procs, i, codes[i*shape.m:(i+1)*shape.m], want)
				}
			}
		}
	}
}

// BenchmarkTrain and BenchmarkEncodeAll are PQ construction at DiskANN's
// 768-d shape (96 sub-spaces of 8 dims), on the tiny grid's 200 rows and on
// ten times that.
func BenchmarkTrain(b *testing.B) {
	for _, n := range []int{200, 2000} {
		data := randMatrix(n, 768, 1)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Train(data, 96, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEncodeAll(b *testing.B) {
	for _, n := range []int{200, 2000} {
		data := randMatrix(n, 768, 1)
		quant, err := Train(data, 96, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				quant.EncodeAll(data)
			}
		})
	}
}
