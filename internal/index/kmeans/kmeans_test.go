package kmeans

import (
	"math/rand"
	"reflect"
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
