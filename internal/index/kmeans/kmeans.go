// Package kmeans implements Lloyd's algorithm with k-means++ seeding, the
// clustering substrate behind the IVF index family and the product
// quantisation codebooks. Assignment steps are parallelised with real
// goroutines (index construction is preprocessing, not simulated work).
package kmeans

import (
	"math"
	"math/rand"
	"runtime"
	"sync"

	"svdbench/internal/vec"
)

// Config controls a clustering run.
type Config struct {
	// K is the number of clusters.
	K int
	// MaxIter bounds Lloyd iterations (default 20).
	MaxIter int
	// Seed makes runs deterministic.
	Seed int64
	// Tol stops early when the mean centroid movement falls below it.
	Tol float64
}

// Result is a completed clustering.
type Result struct {
	// Centroids is the K×dim centroid matrix.
	Centroids *vec.Matrix
	// Assign maps each input row to its centroid.
	Assign []int32
	// Sizes counts members per cluster.
	Sizes []int
	// Iters is the number of Lloyd iterations performed.
	Iters int
}

// Run clusters the rows of data into cfg.K groups under squared Euclidean
// distance. K is clamped to the number of rows.
func Run(data *vec.Matrix, cfg Config) Result {
	n, dim := data.Len(), data.Dim
	if cfg.K <= 0 {
		panic("kmeans: K must be positive")
	}
	if cfg.K > n {
		cfg.K = n
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 20
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-4
	}
	r := rand.New(rand.NewSource(cfg.Seed))

	centroids := seedPlusPlus(data, cfg.K, r)
	assign := make([]int32, n)
	sizes := make([]int, cfg.K)

	iters := 0
	for ; iters < cfg.MaxIter; iters++ {
		assignAll(data, centroids, assign)
		// Recompute centroids.
		next := vec.NewMatrix(cfg.K, dim)
		for i := range sizes {
			sizes[i] = 0
		}
		for i := 0; i < n; i++ {
			c := assign[i]
			sizes[c]++
			vec.Add(next.Row(int(c)), data.Row(i))
		}
		var moved float64
		for c := 0; c < cfg.K; c++ {
			row := next.Row(c)
			if sizes[c] == 0 {
				// Re-seed an empty cluster on a random point.
				copy(row, data.Row(r.Intn(n)))
			} else {
				vec.Scale(row, 1/float32(sizes[c]))
			}
			moved += math.Sqrt(float64(vec.L2Sq(row, centroids.Row(c))))
		}
		centroids = next
		if moved/float64(cfg.K) < cfg.Tol {
			iters++
			break
		}
	}
	assignAll(data, centroids, assign)
	for i := range sizes {
		sizes[i] = 0
	}
	for _, c := range assign {
		sizes[c]++
	}
	return Result{Centroids: centroids, Assign: assign, Sizes: sizes, Iters: iters}
}

// seedPlusPlus picks initial centroids with the k-means++ D² weighting. The
// data-wide distance sweeps run through the batch kernel (data rows are
// contiguous); L2Sq is argument-order-exact, so the picks are unchanged.
func seedPlusPlus(data *vec.Matrix, k int, r *rand.Rand) *vec.Matrix {
	n := data.Len()
	centroids := vec.NewMatrix(k, data.Dim)
	first := r.Intn(n)
	copy(centroids.Row(0), data.Row(first))
	d2 := make([]float64, n)
	sweep := func(c int, min bool) {
		var buf [scoreChunk]float32
		raw := data.Raw()
		dim := data.Dim
		cv := centroids.Row(c)
		for lo := 0; lo < n; lo += scoreChunk {
			cn := n - lo
			if cn > scoreChunk {
				cn = scoreChunk
			}
			vec.L2SqBatch(cv, raw[lo*dim:(lo+cn)*dim], buf[:cn])
			for i := 0; i < cn; i++ {
				if d := float64(buf[i]); !min || d < d2[lo+i] {
					d2[lo+i] = d
				}
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

// assignAll writes the nearest centroid of every row into assign, in
// parallel.
func assignAll(data, centroids *vec.Matrix, assign []int32) {
	n := data.Len()
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				assign[i] = int32(Nearest(centroids, data.Row(i)))
			}
		}(lo, hi)
	}
	wg.Wait()
}

// scoreChunk is the row batch of the chunked centroid scans below: big
// enough to amortise the batch-kernel call, small enough to live on the
// stack.
const scoreChunk = 64

// Nearest returns the index of the centroid closest to v under squared
// Euclidean distance.
//
// Centroid matrices are contiguous, so distances come from the batch kernel
// in chunks; they are bit-identical to the scalar loop, and the first-
// minimum rule (strict <, ascending scan) picks the same argmin.
func Nearest(centroids *vec.Matrix, v []float32) int {
	var buf [scoreChunk]float32
	raw := centroids.Raw()
	dim := centroids.Dim
	k := centroids.Len()
	best, bestD := 0, float32(math.Inf(1))
	for lo := 0; lo < k; lo += scoreChunk {
		n := k - lo
		if n > scoreChunk {
			n = scoreChunk
		}
		vec.L2SqBatch(v, raw[lo*dim:(lo+n)*dim], buf[:n])
		for i := 0; i < n; i++ {
			if buf[i] < bestD {
				best, bestD = lo+i, buf[i]
			}
		}
	}
	return best
}

// NearestN returns the indexes of the n closest centroids to v, closest
// first (ties by lower index). dists and cells are caller-owned scratch with
// capacity for one entry per centroid, so a search that keeps them performs
// no allocation here; the result aliases cells and is valid until cells is
// reused.
//
//annlint:hotpath
func NearestN(centroids *vec.Matrix, v []float32, n int, dists []float32, cells []int) []int {
	k := centroids.Len()
	if n > k {
		n = k
	}
	dists, cells = dists[:k], cells[:k]
	vec.L2SqBatch(v, centroids.Raw(), dists)
	for i := range cells {
		cells[i] = i
	}
	// Partial selection sort: n is small (nprobe).
	for i := 0; i < n; i++ {
		min := i
		for j := i + 1; j < k; j++ {
			if dists[j] < dists[min] || (dists[j] == dists[min] && cells[j] < cells[min]) {
				min = j
			}
		}
		dists[i], dists[min] = dists[min], dists[i]
		cells[i], cells[min] = cells[min], cells[i]
	}
	return cells[:n]
}
