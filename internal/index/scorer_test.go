package index

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"svdbench/internal/index/sq"
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

// Property: the scorer matches vec.Distance for every metric.
func TestPropertyScorerMatchesVecDistance(t *testing.T) {
	m := randMatrix(50, 24, 1)
	for _, metric := range []vec.Metric{vec.L2, vec.IP, vec.Cosine} {
		s := NewScorer(m, metric)
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			q := make([]float32, 24)
			for j := range q {
				q[j] = float32(r.NormFloat64())
			}
			qs := s.Query(q)
			i := r.Intn(m.Len())
			got := float64(qs.Dist(i))
			want := float64(vec.Distance(metric, q, m.Row(i)))
			return math.Abs(got-want) <= 1e-4*(1+math.Abs(want))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%v: %v", metric, err)
		}
	}
}

func TestQueryRowUsesCachedNorm(t *testing.T) {
	m := randMatrix(10, 8, 2)
	s := NewScorer(m, vec.Cosine)
	for i := 0; i < 10; i++ {
		qs := s.QueryRow(i)
		if d := qs.Dist(i); math.Abs(float64(d)) > 1e-5 {
			t.Errorf("self cosine distance of row %d = %v", i, d)
		}
	}
}

// TestRowDistSymmetric pins the two properties a PruneMemo's reuse rests
// on, bit for bit, for every metric at a dimension with and without a d%4
// tail: a stored-row distance is the same from either side, and a distance
// is the same whichever DistBatch position, or whichever SQ lane of a
// decoded block, computed it.
func TestRowDistSymmetric(t *testing.T) {
	const n = 20
	r := rand.New(rand.NewSource(3))
	for _, dim := range []int{8, 13} {
		m := randMatrix(n, dim, int64(dim))
		for _, metric := range []vec.Metric{vec.L2, vec.IP, vec.Cosine} {
			s := NewScorer(m, metric)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if a, b := s.QueryRow(i).Dist(j), s.QueryRow(j).Dist(i); math.Float32bits(a) != math.Float32bits(b) {
						t.Fatalf("%v dim %d: d(%d,%d)=%v != d(%d,%d)=%v", metric, dim, i, j, a, j, i, b)
					}
				}
			}
			for trial := 0; trial < 50; trial++ {
				qs := s.QueryRow(r.Intn(n))
				ids := make([]int32, 1+r.Intn(9))
				for k := range ids {
					ids[k] = int32(r.Intn(n))
				}
				out := make([]float32, len(ids))
				qs.DistBatch(ids, out)
				for k, id := range ids {
					if want := qs.Dist(int(id)); math.Float32bits(out[k]) != math.Float32bits(want) {
						t.Fatalf("%v dim %d: DistBatch position %d of %v = %v, Dist = %v", metric, dim, k, ids, out[k], want)
					}
				}
			}
		}
		q, err := sq.Train(m)
		if err != nil {
			t.Fatal(err)
		}
		codes := q.EncodeAll(m)
		block := make([]float32, vec.LaneBlockLen(8, dim))
		out := make([]float32, 8)
		for trial := 0; trial < 50; trial++ {
			ids := make([]int, 1+r.Intn(8))
			for lane := range ids {
				ids[lane] = r.Intn(n)
				q.DecodeLane(block, lane, codes, ids[lane])
			}
			x := m.Row(r.Intn(n))
			vec.L2SqLanes(x, block, out[:len(ids)])
			for lane, id := range ids {
				if want := q.DistanceAt(x, codes, id); math.Float32bits(out[lane]) != math.Float32bits(want) {
					t.Fatalf("dim %d: lane %d of %d scored code %d as %v, DistanceAt = %v", dim, lane, len(ids), id, out[lane], want)
				}
			}
		}
	}
}

func TestScorerZeroVectorCosine(t *testing.T) {
	m := vec.MatrixFromRows([][]float32{{0, 0}, {1, 0}})
	s := NewScorer(m, vec.Cosine)
	qs := s.Query([]float32{1, 0})
	if d := qs.Dist(0); d != 1 {
		t.Errorf("distance to zero vector = %v, want 1", d)
	}
	zq := s.Query([]float32{0, 0})
	if d := zq.Dist(1); d != 1 {
		t.Errorf("zero query distance = %v, want 1", d)
	}
}

func TestScorerVector(t *testing.T) {
	m := randMatrix(3, 4, 4)
	s := NewScorer(m, vec.L2)
	q := []float32{1, 2, 3, 4}
	if got := s.Query(q).Vector(); &got[0] != &q[0] {
		t.Error("Vector() must alias the query")
	}
	if s.Metric() != vec.L2 {
		t.Error("metric accessor wrong")
	}
}

func TestScorerUnknownMetricPanics(t *testing.T) {
	m := randMatrix(3, 4, 5)
	s := NewScorer(m, vec.Metric(99))
	defer func() {
		if recover() == nil {
			t.Error("no panic for unknown metric")
		}
	}()
	s.Query(make([]float32, 4)).Dist(0)
}

// TestScorerBatchBitIdentity is the differential test of the cached-norm
// scoring paths: DistRange (contiguous) and DistBatch (gathered, with its
// remainder padded into the 4-row kernel) must equal scalar vec.Distance bit
// for bit — every metric, dimensions on both sides of the 4- and 8-element
// unroll boundaries up to 1536, every row-count remainder, a zero query, a
// zero row, and rows added through Append.
func TestScorerBatchBitIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, dim := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 24, 33, 96, 127, 768, 769, 1536} {
		m := randMatrix(9, dim, int64(dim))
		clear(m.Row(4))
		extra := randMatrix(4, dim, int64(dim)+1)
		for _, metric := range []vec.Metric{vec.L2, vec.IP, vec.Cosine} {
			data := vec.NewMatrix(0, dim)
			for i := 0; i < m.Len(); i++ {
				data.AppendRow(m.Row(i))
			}
			s := NewScorer(data, metric)
			for i := 0; i < extra.Len(); i++ {
				s.Append(extra.Row(i))
			}
			n := data.Len()
			q := make([]float32, dim)
			for j := range q {
				q[j] = float32(r.NormFloat64())
			}
			for _, query := range [][]float32{q, make([]float32, dim)} {
				qs := s.Query(query)
				want := make([]float32, n)
				for i := range want {
					want[i] = vec.Distance(metric, query, data.Row(i))
				}
				for lo := 0; lo <= 4; lo++ {
					for cnt := 0; lo+cnt <= n; cnt++ {
						out := make([]float32, cnt)
						qs.DistRange(lo, out)
						ids := make([]int32, cnt)
						for i := range ids {
							ids[i] = int32(n - 1 - lo - i) // descending: a genuine gather
						}
						gathered := make([]float32, cnt)
						qs.DistBatch(ids, gathered)
						for i := 0; i < cnt; i++ {
							if out[i] != want[lo+i] {
								t.Fatalf("%v dim %d: DistRange(%d,%d)[%d] = %x, scalar %x", metric, dim, lo, cnt, i, out[i], want[lo+i])
							}
							if gathered[i] != want[ids[i]] {
								t.Fatalf("%v dim %d: DistBatch(%d ids)[%d] = %x, scalar %x", metric, dim, cnt, i, gathered[i], want[ids[i]])
							}
							if d := qs.Dist(int(ids[i])); d != want[ids[i]] {
								t.Fatalf("%v dim %d: Dist(%d) = %x, scalar %x", metric, dim, ids[i], d, want[ids[i]])
							}
						}
					}
				}
			}
		}
	}
}
