// Package dataset provides the vector workloads for the benchmark: seeded
// synthetic embedding datasets shaped like the paper's Cohere (768-d) and
// OpenAI (1536-d) corpora, exact brute-force ground truth, and recall@k.
//
// The real corpora are not redistributable and far exceed what pure-Go index
// construction can handle in this environment, so the generator substitutes
// a Gaussian mixture: cluster centres drawn on the unit sphere, points
// scattered around them with per-cluster spread, then L2-normalised. This
// keeps the two properties the paper's results depend on — realistic
// clusteredness (which drives recall/parameter-tuning behaviour) and the
// original dimensionalities (which drive bytes-per-vector and therefore I/O
// granularity) — while scaling counts down. Every dataset keeps the paper's
// 10× small→large ratio.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"svdbench/internal/index"
	"svdbench/internal/vec"
)

// Spec describes a synthetic dataset deterministically: the same spec always
// generates bit-identical data.
type Spec struct {
	Name       string
	N          int // number of base vectors
	Dim        int
	NumQueries int
	Clusters   int // Gaussian mixture components
	Spread     float64
	Seed       int64
	Metric     vec.Metric
	GroundK    int // neighbours per query in the ground truth
}

// Dataset is a generated workload: base vectors, query vectors, and exact
// top-GroundK nearest neighbours for every query.
type Dataset struct {
	Spec        Spec
	Vectors     *vec.Matrix
	Queries     *vec.Matrix
	GroundTruth [][]int32
}

// DefaultGroundK is the ground-truth depth kept per query; recall@k is
// supported for any k up to this.
const DefaultGroundK = 100

// Generate builds the dataset described by spec, including ground truth
// (computed exactly, in parallel across queries).
func Generate(spec Spec) *Dataset {
	if spec.N <= 0 || spec.Dim <= 0 || spec.NumQueries <= 0 {
		panic(fmt.Sprintf("dataset: invalid spec %+v", spec))
	}
	if spec.Clusters <= 0 {
		spec.Clusters = 64
	}
	if spec.Spread <= 0 {
		spec.Spread = 0.9
	}
	if spec.GroundK <= 0 {
		spec.GroundK = DefaultGroundK
	}
	if spec.GroundK > spec.N {
		spec.GroundK = spec.N
	}
	r := rand.New(rand.NewSource(spec.Seed))

	// Cluster centres are generated hierarchically — superclusters on the
	// sphere, clusters scattered around them — because real embedding
	// corpora have topic hierarchies: clusters of one topic family sit
	// closer to each other than to the rest. This multi-scale similarity
	// structure is what gives graph traversals a navigation gradient;
	// mutually orthogonal centres (a flat mixture in high dimensions)
	// would be a pathological, unrealistically unnavigable geometry.
	superCount := (spec.Clusters + 7) / 8
	supers := vec.NewMatrix(superCount, spec.Dim)
	for c := 0; c < superCount; c++ {
		row := supers.Row(c)
		for i := range row {
			row[i] = float32(r.NormFloat64())
		}
		vec.Normalize(row)
	}
	superSigma := 0.7 / math.Sqrt(float64(spec.Dim))
	centers := vec.NewMatrix(spec.Clusters, spec.Dim)
	for c := 0; c < spec.Clusters; c++ {
		row := centers.Row(c)
		super := supers.Row(c % superCount)
		for i := range row {
			row[i] = super[i] + float32(r.NormFloat64()*superSigma)
		}
		vec.Normalize(row)
	}
	// Zipf-ish skew over clusters, like topical text corpora.
	weights := make([]float64, spec.Clusters)
	var wsum float64
	for c := range weights {
		weights[c] = 1 / float64(c+1)
		wsum += weights[c]
	}
	cum := make([]float64, spec.Clusters)
	acc := 0.0
	for c := range weights {
		acc += weights[c] / wsum
		cum[c] = acc
	}
	pick := func() int {
		x := r.Float64()
		i := sort.SearchFloat64s(cum, x)
		if i >= spec.Clusters {
			i = spec.Clusters - 1
		}
		return i
	}

	// Spread is the expected noise norm relative to the (unit) cluster
	// centre: a Spread of 0.9 yields intra-cluster cosine similarities
	// around 0.55–0.7, the range real text-embedding corpora exhibit for
	// related passages.
	//
	// Two further properties of real embedding geometry are modelled
	// because graph-index navigability depends on them:
	//
	//   - Each point blends a primary centre with a random secondary one
	//     (documents mix topics); the bridge points this creates give
	//     greedy traversals a gradient between clusters.
	//   - Noise is low-rank (intrinsic dimension ≈ 48, like the rapidly
	//     decaying spectra of transformer embeddings), not full-rank
	//     isotropic: full-dimensional noise would make local geometry
	//     maximally unnavigable regardless of dataset.
	noiseRank := 48
	if noiseRank > spec.Dim {
		noiseRank = spec.Dim
	}
	basis := vec.NewMatrix(noiseRank, spec.Dim)
	for b := 0; b < noiseRank; b++ {
		row := basis.Row(b)
		for i := range row {
			row[i] = float32(r.NormFloat64())
		}
		vec.Normalize(row)
	}
	sigma := spec.Spread / math.Sqrt(float64(noiseRank))
	coeff := make([]float32, noiseRank)
	sample := func(m *vec.Matrix, i int) {
		c := pick()
		center := centers.Row(c)
		second := centers.Row(pick())
		w2 := float32(r.Float64() * 0.6)
		for b := range coeff {
			coeff[b] = float32(r.NormFloat64() * sigma)
		}
		row := m.Row(i)
		for j := range row {
			row[j] = center[j] + w2*second[j]
		}
		for b := 0; b < noiseRank; b++ {
			brow := basis.Row(b)
			cb := coeff[b]
			for j := range row {
				row[j] += cb * brow[j]
			}
		}
		vec.Normalize(row)
	}

	vectors := vec.NewMatrix(spec.N, spec.Dim)
	for i := 0; i < spec.N; i++ {
		sample(vectors, i)
	}
	queries := vec.NewMatrix(spec.NumQueries, spec.Dim)
	for i := 0; i < spec.NumQueries; i++ {
		sample(queries, i)
	}

	ds := &Dataset{Spec: spec, Vectors: vectors, Queries: queries}
	ds.GroundTruth = BruteForce(vectors, queries, spec.Metric, spec.GroundK)
	return ds
}

// BruteForce computes the exact top-k neighbours of every query over the
// base vectors, parallelised across queries with real goroutines (this is
// preprocessing, not simulated work). Base rows are scored through one
// shared index.Scorer — cached row norms and the packed-rows batch kernel,
// bit-identical to per-pair vec.Distance — and ranked by (distance, id).
func BruteForce(base, queries *vec.Matrix, metric vec.Metric, k int) [][]int32 {
	nq := queries.Len()
	out := make([][]int32, nq)
	workers := runtime.GOMAXPROCS(0)
	if workers > nq {
		workers = nq
	}
	if workers < 1 {
		workers = 1
	}
	scorer := index.NewScorer(base, metric)
	var wg sync.WaitGroup
	next := make(chan int, nq)
	for q := 0; q < nq; q++ {
		next <- q
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				heap  index.MaxHeap
				dists [256]float32
				ns    []index.Neighbor
			)
			n := base.Len()
			for q := range next {
				qs := scorer.Query(queries.Row(q))
				for lo := 0; lo < n; lo += len(dists) {
					chunk := dists[:min(len(dists), n-lo)]
					qs.DistRange(lo, chunk)
					for i, d := range chunk {
						heap.PushBounded(index.Neighbor{ID: int32(lo + i), Dist: d}, k)
					}
				}
				ns = heap.DrainAscending(ns[:0])
				ids := make([]int32, len(ns))
				for i, nb := range ns {
					ids[i] = nb.ID
				}
				out[q] = ids
			}
		}()
	}
	wg.Wait()
	return out
}

// RecallAtK returns |result ∩ truth[:k]| / k for one query.
func RecallAtK(result []int32, truth []int32, k int) float64 {
	if k <= 0 {
		return 0
	}
	if k > len(truth) {
		k = len(truth)
	}
	want := make(map[int32]struct{}, k)
	for _, id := range truth[:k] {
		want[id] = struct{}{}
	}
	hit := 0
	n := k
	if n > len(result) {
		n = len(result)
	}
	for _, id := range result[:n] {
		if _, ok := want[id]; ok {
			hit++
		}
	}
	return float64(hit) / float64(k)
}

// MeanRecallAtK averages RecallAtK over all queries.
func MeanRecallAtK(results [][]int32, truth [][]int32, k int) float64 {
	if len(results) == 0 {
		return 0
	}
	var sum float64
	for i := range results {
		sum += RecallAtK(results[i], truth[i], k)
	}
	return sum / float64(len(results))
}
