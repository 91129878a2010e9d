package kmeans

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"svdbench/internal/vec"
)

// blobs generates k well-separated clusters of points.
func blobs(k, perCluster, dim int, seed int64) (*vec.Matrix, []int32) {
	r := rand.New(rand.NewSource(seed))
	centers := vec.NewMatrix(k, dim)
	for c := 0; c < k; c++ {
		row := centers.Row(c)
		for j := range row {
			row[j] = float32(r.NormFloat64() * 10) // far apart
		}
	}
	data := vec.NewMatrix(k*perCluster, dim)
	labels := make([]int32, k*perCluster)
	for i := 0; i < data.Len(); i++ {
		c := i % k
		labels[i] = int32(c)
		row := data.Row(i)
		center := centers.Row(c)
		for j := range row {
			row[j] = center[j] + float32(r.NormFloat64()*0.1)
		}
	}
	return data, labels
}

func TestRecoverWellSeparatedClusters(t *testing.T) {
	data, labels := blobs(4, 50, 8, 7)
	res := Run(data, Config{K: 4, Seed: 1})
	// Every pair in the same true cluster must share an assignment and
	// pairs in different true clusters must not (perfect separation).
	rep := map[int32]int32{} // true label -> assigned cluster
	for i, lab := range labels {
		got := res.Assign[i]
		if want, ok := rep[lab]; ok {
			if got != want {
				t.Fatalf("point %d of cluster %d assigned %d, want %d", i, lab, got, want)
			}
		} else {
			rep[lab] = got
		}
	}
	if len(rep) != 4 {
		t.Fatalf("recovered %d clusters, want 4", len(rep))
	}
}

func TestDeterminism(t *testing.T) {
	data, _ := blobs(3, 30, 4, 3)
	a := Run(data, Config{K: 3, Seed: 5})
	b := Run(data, Config{K: 3, Seed: 5})
	if !reflect.DeepEqual(a.Assign, b.Assign) {
		t.Error("same seed produced different assignments")
	}
	if !reflect.DeepEqual(a.Centroids.Raw(), b.Centroids.Raw()) {
		t.Error("same seed produced different centroids")
	}
}

func TestKClampedToN(t *testing.T) {
	data := vec.MatrixFromRows([][]float32{{1, 1}, {2, 2}})
	res := Run(data, Config{K: 10, Seed: 1})
	if res.Centroids.Len() != 2 {
		t.Errorf("centroids = %d, want 2", res.Centroids.Len())
	}
}

func TestSizesSumToN(t *testing.T) {
	data, _ := blobs(5, 20, 6, 11)
	res := Run(data, Config{K: 5, Seed: 2})
	sum := 0
	for _, s := range res.Sizes {
		sum += s
	}
	if sum != data.Len() {
		t.Errorf("sizes sum = %d, want %d", sum, data.Len())
	}
}

func TestAssignMatchesNearest(t *testing.T) {
	data, _ := blobs(3, 20, 4, 13)
	res := Run(data, Config{K: 3, Seed: 3})
	for i := 0; i < data.Len(); i++ {
		if int(res.Assign[i]) != Nearest(res.Centroids, data.Row(i)) {
			t.Fatalf("assignment %d inconsistent with Nearest", i)
		}
	}
}

func TestNearestN(t *testing.T) {
	cents := vec.MatrixFromRows([][]float32{{0, 0}, {1, 0}, {5, 0}, {10, 0}})
	dists, cells := make([]float32, 4), make([]int, 4)
	got := NearestN(cents, []float32{0.9, 0}, 2, dists, cells)
	if len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Errorf("NearestN = %v, want [1 0]", got)
	}
	// n larger than k clamps.
	got = NearestN(cents, []float32{0, 0}, 10, dists, cells)
	if len(got) != 4 || got[0] != 0 {
		t.Errorf("clamped NearestN = %v", got)
	}
}

func TestPanicsOnZeroK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for K=0")
		}
	}()
	Run(vec.NewMatrix(3, 2), Config{K: 0})
}

func TestEmptyClusterReseeded(t *testing.T) {
	// Many identical points with large K forces empty clusters; sizes must
	// still sum to n and centroids stay finite.
	data := vec.NewMatrix(20, 2)
	for i := 0; i < 20; i++ {
		data.SetRow(i, []float32{1, 1})
	}
	res := Run(data, Config{K: 5, Seed: 9})
	sum := 0
	for _, s := range res.Sizes {
		sum += s
	}
	if sum != 20 {
		t.Errorf("sizes sum = %d", sum)
	}
}

func TestConvergesEarly(t *testing.T) {
	data, _ := blobs(2, 50, 4, 17)
	res := Run(data, Config{K: 2, Seed: 1, MaxIter: 100})
	if res.Iters >= 100 {
		t.Errorf("did not converge early: %d iters", res.Iters)
	}
}

// TestNearestZeroAlloc: Nearest's chunk buffer stays on the stack, which
// holds only while the vec kernels it reaches keep no pointer to it (their
// //go:noescape directives). Two chunks plus a remainder, at a dimension
// with a d%4 tail.
func TestNearestZeroAlloc(t *testing.T) {
	cents, _ := blobs(3, 50, 13, 5)
	v := cents.Row(7)
	if allocs := testing.AllocsPerRun(50, func() { Nearest(cents, v) }); allocs != 0 {
		t.Fatalf("Nearest allocates %.1f times per call, want 0", allocs)
	}
}

// refSeedPlusPlus is the k-means++ seeding before it ran on lane blocks, with
// its batch sweep written as scalar L2Sq calls (bit-identical): a float64
// d2, one sweep per centroid including the last, then a separate sum loop
// and a linear scan for each pick.
func refSeedPlusPlus(data *vec.Matrix, k int, r *rand.Rand) *vec.Matrix {
	n := data.Len()
	centroids := vec.NewMatrix(k, data.Dim)
	first := r.Intn(n)
	copy(centroids.Row(0), data.Row(first))
	d2 := make([]float64, n)
	sweep := func(c int, min bool) {
		for i := 0; i < n; i++ {
			if d := float64(vec.L2Sq(centroids.Row(c), data.Row(i))); !min || d < d2[i] {
				d2[i] = d
			}
		}
	}
	sweep(0, false)
	for c := 1; c < k; c++ {
		var sum float64
		for _, d := range d2 {
			sum += d
		}
		var pick int
		if sum <= 0 {
			pick = r.Intn(n)
		} else {
			x := r.Float64() * sum
			acc := 0.0
			pick = n - 1
			for i, d := range d2 {
				acc += d
				if acc >= x {
					pick = i
					break
				}
			}
		}
		copy(centroids.Row(c), data.Row(pick))
		sweep(c, true)
	}
	return centroids
}

// TestSeedMatchesReference: the one-pass seeding with its binary-searched
// prefix picks the reference's centroids and leaves the random stream where
// the reference leaves it, on clustered data, on rows from a tiny alphabet
// (ties in d2 and in the prefix), at dims with a d%4 tail, and on identical
// rows, where d2 sums to zero and every pick is uniform.
func TestSeedMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name      string
		data      *vec.Matrix
		k         int
		alphabet  bool
		identical bool
	}{
		{name: "blobs", data: mustBlobs(5, 40, 8), k: 17},
		{name: "d768", data: mustBlobs(4, 30, 768), k: 56},
		{name: "d13", data: mustBlobs(3, 33, 13), k: 40},
		{name: "alphabet", data: vec.NewMatrix(300, 10), k: 200, alphabet: true},
		{name: "identical", data: vec.NewMatrix(50, 3), k: 12, identical: true},
	} {
		r := rand.New(rand.NewSource(4))
		for i := 0; i < tc.data.Len(); i++ {
			row := tc.data.Row(i)
			for j := range row {
				switch {
				case tc.identical:
					row[j] = 1
				case tc.alphabet:
					row[j] = float32(r.Intn(3) - 1)
				}
			}
		}
		for seed := int64(0); seed < 5; seed++ {
			ra, rb := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got, want := seedPlusPlus(tc.data, tc.k, ra), refSeedPlusPlus(tc.data, tc.k, rb)
			if !reflect.DeepEqual(got.Raw(), want.Raw()) {
				t.Fatalf("%s seed %d: seeded centroids differ from the reference", tc.name, seed)
			}
			if a, b := ra.Int63(), rb.Int63(); a != b {
				t.Fatalf("%s seed %d: random stream diverged from the reference", tc.name, seed)
			}
		}
	}
}

func mustBlobs(k, perCluster, dim int) *vec.Matrix {
	data, _ := blobs(k, perCluster, dim, int64(dim))
	return data
}

// TestAssignMatchesNearestAcrossShapes: assignAll's lane-block argmin equals
// Nearest's row-major scan for every row, at K%8 ≠ 0, at a d%4 tail and on
// tied rows, at any GOMAXPROCS.
func TestAssignMatchesNearestAcrossShapes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	r := rand.New(rand.NewSource(6))
	for _, shape := range []struct{ n, dim, k int }{{200, 8, 200}, {97, 10, 37}, {64, 3, 5}, {120, 768, 56}} {
		data := vec.NewMatrix(shape.n, shape.dim)
		for i := range data.Raw() {
			data.Raw()[i] = float32(r.Intn(5) - 2)
		}
		cents := seedPlusPlus(data, shape.k, r)
		for _, procs := range []int{1, 3} {
			runtime.GOMAXPROCS(procs)
			assign := make([]int32, shape.n)
			assignAll(data, cents, nil, assign)
			for i, a := range assign {
				if want := Nearest(cents, data.Row(i)); int(a) != want {
					t.Fatalf("n=%d d=%d K=%d procs=%d: row %d assigned %d, Nearest %d", shape.n, shape.dim, shape.k, procs, i, a, want)
				}
			}
		}
	}
}

// FuzzNearest: the fuzz bytes choose d, K and then every value from a
// five-letter alphabet (±0 among them), so distances tie often; the lane
// kernel's argmin over the packed block must be the scalar first-minimum scan
// over the rows.
func FuzzNearest(f *testing.F) {
	f.Add([]byte{7, 200, 1, 2, 3, 4, 0, 0, 1})
	f.Add([]byte{3, 9, 0, 0, 0, 0})
	f.Add([]byte{0, 0})
	alphabet := []float32{-1, float32(math.Copysign(0, -1)), 0, 1, 2}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 2 {
			return
		}
		d, k := 1+int(b[0])%20, 1+int(b[1])%300
		b = b[2:]
		val := func(i int) float32 {
			if len(b) == 0 {
				return 0
			}
			return alphabet[int(b[i%len(b)])%len(alphabet)]
		}
		rows := make([]float32, k*d)
		for i := range rows {
			rows[i] = val(i + d)
		}
		x := make([]float32, d)
		for j := range x {
			x[j] = val(j)
		}
		got := vec.NearestLane(x, vec.PackLanes(nil, rows, d), k)
		if want := Nearest(vec.MatrixFromRows(splitRows(rows, d)), x); got != want {
			t.Fatalf("d=%d K=%d: NearestLane %d, scalar scan %d", d, k, got, want)
		}
	})
}

func splitRows(rows []float32, d int) [][]float32 {
	out := make([][]float32, len(rows)/d)
	for i := range out {
		out[i] = rows[i*d : (i+1)*d]
	}
	return out
}

// BenchmarkRun is one clustering at a PQ sub-space's shape (8-d, 256
// centroids) and at IVF's on the tiny grid (768-d, 56 lists, 200 rows).
func BenchmarkRun(b *testing.B) {
	for _, shape := range []struct{ d, k, n int }{{8, 256, 2000}, {768, 56, 200}} {
		r := rand.New(rand.NewSource(3))
		data := vec.NewMatrix(shape.n, shape.d)
		for i := range data.Raw() {
			data.Raw()[i] = float32(r.NormFloat64())
		}
		b.Run(fmt.Sprintf("d%d_k%d_n%d", shape.d, shape.k, shape.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Run(data, Config{K: shape.k, MaxIter: 8, Seed: 1})
			}
		})
	}
}
