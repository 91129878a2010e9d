package diskann

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"testing"

	"svdbench/internal/dataset"
	"svdbench/internal/index"
	"svdbench/internal/vec"
)

// refGreedySearchBuild is the construction-time search as this package wrote
// it before the shared kernel (index.BestFirst): a per-call map, one scalar
// Dist per neighbour, a sort over the map's iteration. Kept verbatim as the
// reference greedySearchBuild is compared against.
func (ix *Index) refGreedySearchBuild(q index.QueryScorer, L int, skip int32) []index.Neighbor {
	visited := map[int32]float32{}
	var frontier index.MinHeap
	var results index.MaxHeap
	start := ix.medoid
	d := q.Dist(int(start))
	frontier.Push(index.Neighbor{ID: start, Dist: d})
	visited[start] = d
	results.PushBounded(index.Neighbor{ID: start, Dist: d}, L)
	for frontier.Len() > 0 {
		cur := frontier.Pop()
		if results.Len() >= L && cur.Dist > results.Peek().Dist {
			break
		}
		for _, nb := range ix.graph[cur.ID] {
			if _, ok := visited[nb]; ok {
				continue
			}
			nd := q.Dist(int(nb))
			visited[nb] = nd
			if results.Len() < L || nd < results.Peek().Dist {
				frontier.Push(index.Neighbor{ID: nb, Dist: nd})
				results.PushBounded(index.Neighbor{ID: nb, Dist: nd}, L)
			}
		}
	}
	out := make([]index.Neighbor, 0, len(visited))
	for id, dist := range visited {
		if id == skip {
			continue
		}
		out = append(out, index.Neighbor{ID: id, Dist: dist})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// randomGraphIndex is an unbuilt index over a seeded random digraph of
// out-degree deg: enough of an Index for the construction-time search. About
// a third of the rows duplicate their predecessor, so every query sees
// equal-distance ties; at low degree part of the graph is unreachable from
// the medoid.
func randomGraphIndex(r *rand.Rand, n, dim, deg int, metric vec.Metric) *Index {
	data := vec.NewMatrix(n, dim)
	row := make([]float32, dim)
	for i := 0; i < n; i++ {
		if i == 0 || r.Intn(3) > 0 {
			for j := range row {
				row[j] = float32(r.NormFloat64())
			}
		}
		data.SetRow(i, row)
	}
	graph := make([][]int32, n)
	for i := range graph {
		for _, nb := range r.Perm(n)[:deg] {
			if nb != i {
				graph[i] = append(graph[i], int32(nb))
			}
		}
	}
	return &Index{
		cfg:    Config{R: deg, Metric: metric},
		data:   data,
		graph:  graph,
		medoid: int32(r.Intn(n)),
		scorer: index.NewScorer(data, metric),
	}
}

// TestGreedySearchBuildMatchesReference: over seeded random graphs the shared
// kernel yields the visited list of the map-based loop, element for element —
// with equal-distance ties, a skip that is the entry point, and an L larger
// than everything reachable — on one scratch reused throughout.
func TestGreedySearchBuildMatchesReference(t *testing.T) {
	const n = 120
	scr := index.NewSearchScratch()
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		for _, metric := range []vec.Metric{vec.L2, vec.IP, vec.Cosine} {
			for _, deg := range []int{1, 2, 6} {
				ix := randomGraphIndex(r, n, 8, deg, metric)
				for _, L := range []int{1, 8, 40, 10 * n} {
					for _, p := range []int32{ix.medoid, int32(r.Intn(n)), int32(r.Intn(n))} {
						q := ix.scorer.QueryRow(int(p))
						want := ix.refGreedySearchBuild(q, L, p)
						ix.greedySearchBuild(q, L, p, scr)
						if !slices.Equal(scr.Scored, want) {
							t.Fatalf("seed %d metric %v deg %d L %d p %d (medoid %d): visited list differs\n got %v\nwant %v",
								seed, metric, deg, L, p, ix.medoid, scr.Scored, want)
						}
						if L == 10*n && deg == 1 && len(want) >= n-1 {
							t.Fatalf("seed %d: degree-1 graph reached every node; the unreachable case is not exercised", seed)
						}
					}
				}
			}
		}
	}
}

// TestGreedySearchBuildZeroAlloc: on a warmed scratch one construction-time
// search allocates nothing (the map and the per-insert result slice are gone).
func TestGreedySearchBuildZeroAlloc(t *testing.T) {
	_, ix := shared(t)
	scr := index.NewSearchScratch()
	search := func(p int) { ix.greedySearchBuild(ix.scorer.QueryRow(p), ix.cfg.LBuild, int32(p), scr) }
	for p := 0; p < ix.Len(); p++ {
		search(p)
	}
	p := 0
	allocs := testing.AllocsPerRun(50, func() {
		search(p % ix.Len())
		p++
	})
	if allocs != 0 {
		t.Fatalf("build-time search allocates %.1f times on a warmed scratch, want 0", allocs)
	}
}

// TestSnapshotGolden pins the VAMA0001 snapshot Build persists, as SHA-256 per
// fixture, for every metric at 768-d and at 37-d (whose d%4 tail the kernels
// fold in separately): IP is the metric whose alpha is not squared. The file
// was recorded on the star-form RobustPrune; any other prune loop must
// reproduce it without -update. Rows are rescaled so L2 and IP see non-unit
// norms, and every tenth row is stored three times, so the prune meets exact
// distance ties.
func TestSnapshotGolden(t *testing.T) {
	var got bytes.Buffer
	for _, dim := range []int{768, 37} {
		n := 600
		if dim == 768 {
			n = 300
		}
		ds := dataset.Generate(dataset.Spec{
			Name: fmt.Sprintf("diskann-golden-%d", dim), N: n, Dim: dim, NumQueries: 1,
			Clusters: 8, Seed: 17, Metric: vec.Cosine, GroundK: 1,
		})
		for i := 0; i < n; i++ {
			vec.Scale(ds.Vectors.Row(i), 1+float32(i%5)/4)
			if i%10 > 0 && i%10 < 3 {
				ds.Vectors.SetRow(i, ds.Vectors.Row(i-1))
			}
		}
		for _, metric := range []vec.Metric{vec.Cosine, vec.L2, vec.IP} {
			ix, err := Build(ds.Vectors, nil, Config{R: 16, LBuild: 40, Seed: 11, Metric: metric})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%s dim=%d sha256=%x\n", metric, dim, snapshotSum(t, ix))
		}
	}
	path := filepath.Join("testdata", "snapshots.golden")
	if *updateGoldens {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("snapshots drifted from %s\n--- got\n%s--- want\n%s", path, got.Bytes(), want)
	}
}

// TestSnapshotIdenticalAcrossWorkers: the batched driver plans against the
// frozen graph and applies each node's edits in item order, so the snapshot
// does not depend on how many workers planned and applied.
func TestSnapshotIdenticalAcrossWorkers(t *testing.T) {
	ds := dataset.Generate(dataset.Spec{
		Name: "diskann-workers", N: 400, Dim: 16, NumQueries: 1,
		Clusters: 8, Seed: 5, Metric: vec.Cosine, GroundK: 1,
	})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	snap := func(procs int) []byte {
		runtime.GOMAXPROCS(procs)
		return pagePersistBytes(t, build(t, ds, Config{R: 16, LBuild: 32, PQM: 4, Layout: index.LayoutPage}))
	}
	one := snap(1)
	for _, procs := range []int{2, 4} {
		if many := snap(procs); !bytes.Equal(one, many) {
			t.Fatalf("snapshot differs between 1 and %d workers (%d vs %d bytes)", procs, len(one), len(many))
		}
	}
}
