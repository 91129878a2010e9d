package vec

import (
	"math/rand"
	"testing"
)

// legacySQL2Sq is the SQ distance loop as package sq wrote it before the
// kernels moved here, kept verbatim: every HNSW-SQ graph was built with its
// roundings.
func legacySQL2Sq(query, min, scale []float32, code []byte) float32 {
	var s float32
	for j, c := range code {
		d := query[j] - (min[j] + float32(c)*scale[j])
		s += d * d
	}
	return s
}

// sqFixture is n random codes of dim d with a plausible codec and query.
func sqFixture(r *rand.Rand, n, d int) (x, lo, step []float32, codes []byte) {
	x, lo, step = randVec(r, d), randVec(r, d), randVec(r, d)
	for j := range step {
		if step[j] < 0 {
			step[j] = -step[j]
		}
		step[j] /= 255
	}
	codes = make([]byte, n*d)
	r.Read(codes)
	return x, lo, step, codes
}

// TestSQKernelsMatchLegacy pins SQL2Sq, SQL2SqBatch and L2SqLanes to the
// legacy loop bit for bit over every dimension class (package sq's
// TestKernelsMatchDistanceAt covers code values, special floats and id
// lists).
func TestSQKernelsMatchLegacy(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, d := range commonDims {
		const n = 19
		x, lo, step, codes := sqFixture(r, n, d)
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(r.Intn(n))
		}
		batch, lanes := make([]float32, n), make([]float32, n)
		SQL2SqBatch(x, lo, step, codes, ids, batch)
		block := make([]float32, LaneBlockLen(n, d))
		for lane, id := range ids {
			SQDecodeLane(block, lo, step, codes[int(id)*d:(int(id)+1)*d], lane)
		}
		L2SqLanes(x, block, lanes)
		for i, id := range ids {
			code := codes[int(id)*d : (int(id)+1)*d]
			want := legacySQL2Sq(x, lo, step, code)
			if got := SQL2Sq(x, lo, step, code); got != want {
				t.Fatalf("dim %d: SQL2Sq = %x, legacy %x", d, got, want)
			}
			if batch[i] != want || lanes[i] != want {
				t.Fatalf("dim %d entry %d: batch %x, lanes %x, legacy %x", d, i, batch[i], lanes[i], want)
			}
		}
	}
}

// TestSQKernelsZeroAlloc: the SQ batch and lane entry points allocate
// nothing, their partial-group temporaries included.
func TestSQKernelsZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	const d = 768
	x, lo, step, codes := sqFixture(r, 8, d)
	ids := []int32{3, 1, 4, 1, 5}
	out := make([]float32, len(ids))
	block := make([]float32, LaneBlockLen(len(ids), d))
	if allocs := testing.AllocsPerRun(20, func() {
		SQL2SqBatch(x, lo, step, codes, ids, out)
		L2SqLanes(x, block, out)
	}); allocs != 0 {
		t.Fatalf("SQ kernels allocate %.1f times per call, want 0", allocs)
	}
}

// BenchmarkSQ768 reports ns per 768-d SQ distance for the scalar chain, the
// gathered-code batch kernel and the lane kernel over eight decoded codes.
func BenchmarkSQ768(b *testing.B) {
	r := rand.New(rand.NewSource(14))
	const d, n = 768, 8
	x, lo, step, codes := sqFixture(r, n, d)
	ids := []int32{0, 1, 2, 3, 4, 5, 6, 7}
	out := make([]float32, n)
	block := make([]float32, LaneBlockLen(n, d))
	for lane, id := range ids {
		SQDecodeLane(block, lo, step, codes[int(id)*d:(int(id)+1)*d], lane)
	}
	for _, k := range []struct {
		name string
		run  func()
	}{
		{"scalar", func() {
			for i := range out {
				out[i] = SQL2Sq(x, lo, step, codes[i*d:(i+1)*d])
			}
		}},
		{"batch", func() { SQL2SqBatch(x, lo, step, codes, ids, out) }},
		{"lanes", func() { L2SqLanes(x, block, out) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/dist")
		})
	}
}
