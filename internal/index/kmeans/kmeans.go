// Package kmeans implements Lloyd's algorithm with k-means++ seeding, the
// clustering substrate behind the IVF index family and the product
// quantisation codebooks. Assignment steps run on every core through
// par.For (index construction is preprocessing, not simulated work).
package kmeans

import (
	"math"
	"math/rand"
	"runtime"
	"sort"

	"svdbench/internal/par"
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

// RowBlock is the rows one claim of a build's row loop covers (assignAll,
// pq.EncodeAll): enough NearestLane calls that a claim's atomic add costs
// little next to them, even at 8 dims.
const RowBlock = 256

// assignAll writes the nearest centroid of every row into assign, on every
// core, through a lane block of the centroids packed into block's storage,
// which it returns for the next call.
func assignAll(data, centroids *vec.Matrix, block []float32, assign []int32) []float32 {
	block = vec.PackLanes(block, centroids.Raw(), centroids.Dim)
	n, k := data.Len(), centroids.Len()
	par.For(runtime.GOMAXPROCS(0), (n+RowBlock-1)/RowBlock, func(_, b int) {
		for i := b * RowBlock; i < min(n, (b+1)*RowBlock); i++ {
			assign[i] = int32(vec.NearestLane(data.Row(i), block, k))
		}
	})
	return block
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
