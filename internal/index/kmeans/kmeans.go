// Package kmeans implements Lloyd's algorithm with k-means++ seeding, the
// clustering substrate behind the IVF index family and the product
// quantisation codebooks. Assignment steps are parallelised with real
// goroutines (index construction is preprocessing, not simulated work).
package kmeans

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
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
	var block []float32

	iters := 0
	for ; iters < cfg.MaxIter; iters++ {
		block = assignAll(data, centroids, block, assign)
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
	assignAll(data, centroids, block, assign)
	for i := range sizes {
		sizes[i] = 0
	}
	for _, c := range assign {
		sizes[c]++
	}
	return Result{Centroids: centroids, Assign: assign, Sizes: sizes, Iters: iters}
}

// seedPlusPlus picks initial centroids with the k-means++ D² weighting. Each
// pick is one pass over the data, packed once as a lane block: the new
// centroid's distance to every row (L2Sq is argument-order-exact), the
// min-update of d2 and the running float64 sum of d2 in row order, kept as a
// prefix. The next pick is the first row whose prefix reaches x: the same
// additions in the same order as summing d2 and then scanning it, and the
// prefix never decreases, so a binary search finds the scan's row.
func seedPlusPlus(data *vec.Matrix, k int, r *rand.Rand) *vec.Matrix {
	n, dim := data.Len(), data.Dim
	centroids := vec.NewMatrix(k, dim)
	copy(centroids.Row(0), data.Row(r.Intn(n)))
	block := vec.PackLanes(nil, data.Raw(), dim)
	dist, d2 := make([]float32, n), make([]float32, n)
	prefix := make([]float64, n)
	for c := 1; c < k; c++ {
		vec.L2SqLaneBatch(centroids.Row(c-1), block, dist)
		var sum float64
		for i, d := range dist {
			if c == 1 || d < d2[i] {
				d2[i] = d
			}
			sum += float64(d2[i])
			prefix[i] = sum
		}
		var pick int
		if sum <= 0 {
			pick = r.Intn(n)
		} else {
			pick = min(sort.SearchFloat64s(prefix, r.Float64()*sum), n-1)
		}
		copy(centroids.Row(c), data.Row(pick))
	}
	return centroids
}

// assignAll writes the nearest centroid of every row into assign, in
// parallel, through a lane block of the centroids packed into block's
// storage, which it returns for the next call.
func assignAll(data, centroids *vec.Matrix, block []float32, assign []int32) []float32 {
	block = vec.PackLanes(block, centroids.Raw(), centroids.Dim)
	k := centroids.Len()
	Parallel(data.Len(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			assign[i] = int32(vec.NearestLane(data.Row(i), block, k))
		}
	})
	return block
}

// Parallel runs f over contiguous chunks of [0, n) on up to GOMAXPROCS
// goroutines and waits for them. Construction runs on real cores: it is
// preprocessing, not simulated work.
func Parallel(n int, f func(lo, hi int)) {
	workers := max(1, min(runtime.GOMAXPROCS(0), n))
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, min(lo+chunk, n))
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
