package hnsw

import (
	"bytes"
	"slices"
	"testing"

	"svdbench/internal/dataset"
	"svdbench/internal/index"
	"svdbench/internal/vec"
)

func testData(t *testing.T) *dataset.Dataset {
	t.Helper()
	return dataset.Generate(dataset.Spec{
		Name: "hnsw-test", N: 2000, Dim: 32, NumQueries: 40,
		Clusters: 16, Seed: 9, Metric: vec.Cosine, GroundK: 10,
	})
}

func searchAll(ds *dataset.Dataset, ix *Index, k, ef int) [][]int32 {
	out := make([][]int32, ds.Queries.Len())
	for qi := range out {
		out[qi] = ix.Search(ds.Queries.Row(qi), k, index.SearchOptions{EfSearch: ef}).IDs
	}
	return out
}

func TestHighRecall(t *testing.T) {
	ds := testData(t)
	ix, err := Build(ds.Vectors, nil, Config{M: 16, EfConstruction: 200, Metric: ds.Spec.Metric, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := dataset.MeanRecallAtK(searchAll(ds, ix, 10, 100), ds.GroundTruth, 10)
	if r < 0.95 {
		t.Errorf("recall@10 with ef=100 = %v, want ≥0.95", r)
	}
}

func TestRecallImprovesWithEf(t *testing.T) {
	ds := testData(t)
	ix, _ := Build(ds.Vectors, nil, Config{M: 16, EfConstruction: 200, Metric: ds.Spec.Metric, Seed: 1})
	low := dataset.MeanRecallAtK(searchAll(ds, ix, 10, 10), ds.GroundTruth, 10)
	high := dataset.MeanRecallAtK(searchAll(ds, ix, 10, 200), ds.GroundTruth, 10)
	if high < low {
		t.Errorf("recall fell from %v to %v as ef grew", low, high)
	}
	if high < 0.97 {
		t.Errorf("ef=200 recall = %v, want near-exact", high)
	}
}

func TestWorkGrowsWithEf(t *testing.T) {
	ds := testData(t)
	ix, _ := Build(ds.Vectors, nil, Config{M: 16, EfConstruction: 200, Metric: ds.Spec.Metric, Seed: 1})
	q := ds.Queries.Row(0)
	small := ix.Search(q, 10, index.SearchOptions{EfSearch: 10}).Stats
	big := ix.Search(q, 10, index.SearchOptions{EfSearch: 100}).Stats
	if big.DistComps <= small.DistComps {
		t.Errorf("dist comps did not grow with ef: %d vs %d", small.DistComps, big.DistComps)
	}
}

func TestDegreeBounds(t *testing.T) {
	ds := testData(t)
	cfg := Config{M: 8, EfConstruction: 100, Metric: ds.Spec.Metric, Seed: 1}
	ix, _ := Build(ds.Vectors, nil, cfg)
	for row := int32(0); row < int32(ds.Vectors.Len()); row++ {
		for level := 0; level <= ix.levels[row]; level++ {
			d := ix.Degree(row, level)
			limit := cfg.M
			if level == 0 {
				limit = 2 * cfg.M
			}
			if d > limit {
				t.Fatalf("node %d level %d degree %d exceeds %d", row, level, d, limit)
			}
		}
	}
}

func TestEfSearchBelowKClamped(t *testing.T) {
	ds := testData(t)
	ix, _ := Build(ds.Vectors, nil, Config{M: 16, EfConstruction: 100, Metric: ds.Spec.Metric, Seed: 1})
	res := ix.Search(ds.Queries.Row(0), 10, index.SearchOptions{EfSearch: 1})
	if len(res.IDs) != 10 {
		t.Errorf("got %d results with ef<k, want 10", len(res.IDs))
	}
}

func TestProfileRecordsHops(t *testing.T) {
	ds := testData(t)
	ix, _ := Build(ds.Vectors, nil, Config{M: 16, EfConstruction: 100, Metric: ds.Spec.Metric, Seed: 1})
	var p index.Profile
	res := ix.Search(ds.Queries.Row(0), 10, index.SearchOptions{EfSearch: 50, Recorder: &p})
	// A memory-based index has no I/O boundaries, so all compute coalesces
	// into a single uninterrupted burst.
	if len(p.Steps) != 1 {
		t.Errorf("profile has %d steps, want 1 coalesced compute step", len(p.Steps))
	}
	if len(p.Steps) == 1 && (p.Steps[0].Work.Dist <= 0 || p.Steps[0].Pages != nil) {
		t.Error("memory index profile wrong")
	}
	if res.Stats.Hops == 0 {
		t.Error("no hops counted")
	}
}

func TestScalarQuantizedVariant(t *testing.T) {
	ds := testData(t)
	full, _ := Build(ds.Vectors, nil, Config{M: 16, EfConstruction: 200, Metric: ds.Spec.Metric, Seed: 1})
	sqix, err := Build(ds.Vectors, nil, Config{M: 16, EfConstruction: 200, Metric: ds.Spec.Metric, Seed: 1, ScalarQuantize: true})
	if err != nil {
		t.Fatal(err)
	}
	if sqix.Name() != "HNSW_SQ" {
		t.Errorf("name = %s", sqix.Name())
	}
	rFull := dataset.MeanRecallAtK(searchAll(ds, full, 10, 50), ds.GroundTruth, 10)
	rSQ := dataset.MeanRecallAtK(searchAll(ds, sqix, 10, 50), ds.GroundTruth, 10)
	if rSQ < 0.5 {
		t.Errorf("SQ recall = %v, unusably low", rSQ)
	}
	if rSQ > rFull+0.01 {
		t.Errorf("SQ recall %v above full-precision %v", rSQ, rFull)
	}
	// Quantised variant keeps a smaller vector footprint.
	if sqix.MemoryBytes() >= full.MemoryBytes() {
		t.Errorf("SQ memory %d not below full %d", sqix.MemoryBytes(), full.MemoryBytes())
	}
	res := sqix.Search(ds.Queries.Row(0), 5, index.SearchOptions{EfSearch: 30})
	if res.Stats.PQComps == 0 || res.Stats.DistComps != 0 {
		t.Errorf("SQ stats = %+v, want compressed comps only", res.Stats)
	}
}

func TestFilterRespected(t *testing.T) {
	ds := testData(t)
	ix, _ := Build(ds.Vectors, nil, Config{M: 16, EfConstruction: 100, Metric: ds.Spec.Metric, Seed: 1})
	res := ix.Search(ds.Queries.Row(0), 10, index.SearchOptions{EfSearch: 100, Filter: func(id int32) bool { return id%3 == 0 }})
	for _, id := range res.IDs {
		if id%3 != 0 {
			t.Fatalf("filter leaked id %d", id)
		}
	}
}

func TestExternalIDs(t *testing.T) {
	ds := testData(t)
	ids := make([]int32, ds.Vectors.Len())
	for i := range ids {
		ids[i] = int32(i) * 2
	}
	ix, _ := Build(ds.Vectors, ids, Config{M: 16, EfConstruction: 100, Metric: ds.Spec.Metric, Seed: 1})
	res := ix.Search(ds.Queries.Row(0), 5, index.SearchOptions{EfSearch: 20})
	for _, id := range res.IDs {
		if id%2 != 0 {
			t.Fatalf("external id %d not even", id)
		}
	}
}

func TestEmptyDataRejected(t *testing.T) {
	if _, err := Build(vec.NewMatrix(0, 8), nil, Config{}); err == nil {
		t.Error("empty build accepted")
	}
}

func TestSingleVector(t *testing.T) {
	m := vec.MatrixFromRows([][]float32{{1, 0}})
	ix, err := Build(m, nil, Config{M: 4, Metric: vec.L2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := ix.Search([]float32{0.9, 0}, 1, index.SearchOptions{EfSearch: 5})
	if len(res.IDs) != 1 || res.IDs[0] != 0 {
		t.Errorf("single-vector search = %+v", res.IDs)
	}
}

// TestSelectionCandidatesDistinct: index.Prune's kept flags are positional,
// which stands for a set of ids only because its candidates are distinct — a
// layer search returns each visited node once, and linkBack appends a row to
// lists that cannot hold it yet (so index.Relink's duplicate check never
// fires for HNSW). The test replays a build through the same plan and apply,
// asserts both at every insertion, and checks that the replay persists the
// bytes Build did.
func TestSelectionCandidatesDistinct(t *testing.T) {
	ds := dataset.Generate(dataset.Spec{
		Name: "hnsw-distinct", N: 400, Dim: 24, NumQueries: 1,
		Clusters: 8, Seed: 13, Metric: vec.L2, GroundK: 1,
	})
	distinct := func(ns []index.Neighbor) bool {
		seen := map[int32]bool{}
		for _, n := range ns {
			if seen[n.ID] {
				return false
			}
			seen[n.ID] = true
		}
		return true
	}
	for _, quantize := range []bool{false, true} {
		cfg := Config{M: 6, EfConstruction: 40, Metric: ds.Spec.Metric, Seed: 2, ScalarQuantize: quantize}
		built, err := Build(ds.Vectors, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ix := &Index{
			cfg: built.cfg, data: built.data, levels: built.levels, mult: built.mult,
			links: make([][][]int32, ds.Vectors.Len()), entry: -1, maxLevel: -1,
			scorer: built.scorer, quantizer: built.quantizer, codes: built.codes,
		}
		memos := make([][]index.PruneMemo, ds.Vectors.Len())
		for row, level := range ix.levels {
			memos[row] = make([]index.PruneMemo, level+1)
		}
		index.InsertBatched(ds.Vectors.Len(), 1,
			func(i int, scr *index.SearchScratch) [][]int32 {
				row := int32(i)
				if ix.entry >= 0 {
					q := ix.rowQuery(row)
					eps := []index.Neighbor{ix.descend(q, ix.levels[row], nil, scr)}
					for l := min(ix.levels[row], ix.maxLevel); l >= 0; l-- {
						found := ix.searchLayer(q, eps, cfg.EfConstruction, l, nil, nil, scr)
						if !distinct(found) {
							t.Errorf("sq=%t row %d level %d: layer search returned a node twice", quantize, row, l)
						}
						eps = append([]index.Neighbor(nil), found...)
					}
				}
				selected := ix.planInsert(row, scr)
				for l, sel := range selected {
					for _, nb := range sel {
						if slices.Contains(ix.links[nb][l], row) {
							t.Errorf("sq=%t: node %d level %d already links to the row %d being inserted", quantize, nb, l, row)
						}
					}
				}
				return selected
			},
			func(i int, selected [][]int32, sh index.Shard) { ix.applyInsert(int32(i), selected, sh, memos) })
		if !bytes.Equal(persistBytes(t, ix), persistBytes(t, built)) {
			t.Fatalf("sq=%t: replayed build persisted different bytes than Build", quantize)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	ds := dataset.Generate(dataset.Spec{
		Name: "det", N: 300, Dim: 16, NumQueries: 5, Clusters: 4, Seed: 2, Metric: vec.Cosine, GroundK: 5,
	})
	a, _ := Build(ds.Vectors, nil, Config{M: 8, EfConstruction: 50, Metric: ds.Spec.Metric, Seed: 3})
	b, _ := Build(ds.Vectors, nil, Config{M: 8, EfConstruction: 50, Metric: ds.Spec.Metric, Seed: 3})
	ra := a.Search(ds.Queries.Row(0), 5, index.SearchOptions{EfSearch: 20})
	rb := b.Search(ds.Queries.Row(0), 5, index.SearchOptions{EfSearch: 20})
	for i := range ra.IDs {
		if ra.IDs[i] != rb.IDs[i] {
			t.Fatal("same seed produced different graphs")
		}
	}
}
