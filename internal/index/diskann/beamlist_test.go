package diskann

import (
	"math/rand"
	"slices"
	"testing"

	"svdbench/internal/dataset"
	"svdbench/internal/index"
	"svdbench/internal/vec"
)

// TestMergeBeamTailMatchesSortTruncate is the differential test of the beam
// list: merging a hop's pushes into the sorted prefix must leave exactly what
// sorting the whole list and truncating it to L leaves — the same entries
// (Visited flags included) in the same order, and the same set of ids taken
// out of inList. Distances are drawn from four values, so most comparisons
// fall through to the ID tie-break; tails run both shorter and longer than L.
func TestMergeBeamTailMatchesSortTruncate(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const ids = 1000
	for _, L := range []int{1, 2, 20, 200} {
		for rep := 0; rep < 200; rep++ {
			perm := r.Perm(ids)
			nPrefix := r.Intn(L + 1)
			nTail := r.Intn(2*L + 3)
			cands := make([]index.BeamEntry, nPrefix+nTail)
			var inList index.EpochSet
			inList.Begin(ids)
			for i := range cands {
				cands[i] = index.BeamEntry{ID: int32(perm[i]), Dist: float32(r.Intn(4))}
				inList.Add(cands[i].ID)
			}
			for i := range cands[:nPrefix] {
				cands[i].Visited = r.Intn(2) == 0
			}
			slices.SortFunc(cands[:nPrefix], compareBeamRef)

			want := slices.Clone(cands)
			slices.SortFunc(want, compareBeamRef)
			var wantEvicted []int32
			if len(want) > L {
				for _, c := range want[L:] {
					wantEvicted = append(wantEvicted, c.ID)
				}
				want = want[:L]
			}

			all := slices.Clone(cands)
			got := mergeBeamTail(cands, nPrefix, L, &inList)
			if !slices.Equal(got, want) {
				t.Fatalf("L %d prefix %d tail %d: merged list\n%v\nwant\n%v", L, nPrefix, nTail, got, want)
			}
			var gotEvicted []int32
			for _, c := range all {
				if !inList.Contains(c.ID) {
					gotEvicted = append(gotEvicted, c.ID)
				}
			}
			slices.Sort(gotEvicted)
			slices.Sort(wantEvicted)
			if !slices.Equal(gotEvicted, wantEvicted) {
				t.Fatalf("L %d prefix %d tail %d: evicted %v, want %v", L, nPrefix, nTail, gotEvicted, wantEvicted)
			}
		}
	}
}

// compareBeamRef is the comparator of the per-hop sort the merge replaced,
// kept as the reference order.
func compareBeamRef(a, b index.BeamEntry) int {
	if a.Dist != b.Dist {
		if a.Dist < b.Dist {
			return -1
		}
		return 1
	}
	if a.ID != b.ID {
		if a.ID < b.ID {
			return -1
		}
		return 1
	}
	return 0
}

// benchData is the serve-mono shape of the layered benchmark: 500 clustered
// 768-d cosine vectors, built with the collection's default parameters.
func benchData() (*dataset.Dataset, Config) {
	ds := dataset.Generate(dataset.Spec{
		Name: "diskann-bench", N: 500, Dim: 768, NumQueries: 200,
		Clusters: 64, Spread: 0.9, Seed: 1, Metric: vec.Cosine, GroundK: 10,
	})
	return ds, Config{R: 48, LBuild: 100, Alpha: 1.2, Metric: vec.Cosine, Seed: 1}
}

// BenchmarkBuild500x768 times one full build: PQ training and encoding, both
// Vamana passes, the final prune.
func BenchmarkBuild500x768(b *testing.B) {
	ds, cfg := benchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(ds.Vectors, nil, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchInto times the steady-state query (reused scratch and dst,
// no recorder, no cache) of each layout at L=20, W=4.
func BenchmarkSearchInto(b *testing.B) {
	ds, cfg := benchData()
	ix, err := Build(ds.Vectors, nil, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var next int64
	ix.AssignPages(func(n int64) int64 { p := next; next += n; return p })
	for _, layout := range []string{index.LayoutID, index.LayoutPage} {
		b.Run(layout, func(b *testing.B) {
			opts := index.SearchOptions{SearchList: 20, BeamWidth: 4, Layout: layout, Scratch: index.NewSearchScratch()}
			var dst index.Result
			for qi := 0; qi < ds.Queries.Len(); qi++ {
				ix.SearchInto(ds.Queries.Row(qi), 10, opts, &dst)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.SearchInto(ds.Queries.Row(i%ds.Queries.Len()), 10, opts, &dst)
			}
		})
	}
}
