package index_test

import (
	"testing"
	"unsafe"

	"svdbench/internal/dataset"
	"svdbench/internal/index"
	"svdbench/internal/index/diskann"
	"svdbench/internal/index/flat"
	"svdbench/internal/index/hnsw"
	"svdbench/internal/index/ivf"
	"svdbench/internal/index/spann"
	"svdbench/internal/vec"
)

// counts re-prices a recorded profile under models of one 1000 ps constant
// each, so every total is one count of the work the steps carry.
type counts struct{ dist, dims, adc, subs, heap, hits int64 }

func countsOf(p *index.Profile) counts {
	total := func(c index.CostModel) int64 {
		var n int64
		for i := range p.Steps {
			n += int64(c.Price(&p.Steps[i]))
		}
		return n
	}
	return counts{
		dist: total(index.CostModel{DistFixedPs: 1000}),
		dims: total(index.CostModel{DistPerDimPs: 1000}),
		adc:  total(index.CostModel{PQFixedPs: 1000}),
		subs: total(index.CostModel{PQPerSubPs: 1000}),
		heap: total(index.CostModel{HeapOpPs: 1000}),
		hits: total(index.CostModel{CacheHitPs: 1000}),
	}
}

func workData(dim int) *dataset.Dataset {
	return dataset.Generate(dataset.Spec{
		Name: "work", N: 1500, Dim: dim, NumQueries: 1,
		Clusters: 12, Seed: 3, Metric: vec.L2, GroundK: 10,
	})
}

// TestWorkCountsMatchStats records one query per index kind and re-prices
// its steps one count at a time: each count must be what that search's Stats
// says it did, up to the gaps the cost model has always had, written into
// want. Heap operations have no Stats counterpart outside the scans (-1 skips
// them); the per-dim and per-sub-quantizer totals check each step's Dim and M.
func TestWorkCountsMatchStats(t *testing.T) {
	const dim, pqm = 32, 8
	ds := workData(dim)
	pages := func() func(int64) int64 {
		var next int64
		return func(n int64) int64 { p := next; next += n; return p }
	}
	ivfFlat, err := ivf.Build(ds.Vectors, nil, ivf.Config{Metric: vec.L2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ivfPQ, err := ivf.Build(ds.Vectors, nil, ivf.Config{Metric: vec.L2, Seed: 1, PQ: true, PQM: pqm})
	if err != nil {
		t.Fatal(err)
	}
	ivfPQ.AssignPages(pages())
	hnswCfg := hnsw.Config{M: 8, EfConstruction: 40, Metric: vec.L2, Seed: 1}
	hn, err := hnsw.Build(ds.Vectors, nil, hnswCfg)
	if err != nil {
		t.Fatal(err)
	}
	hnswCfg.ScalarQuantize = true
	hnSQ, err := hnsw.Build(ds.Vectors, nil, hnswCfg)
	if err != nil {
		t.Fatal(err)
	}
	spannIndex := func(replicas int) *spann.Index {
		sp, err := spann.Build(ds.Vectors, nil, spann.Config{PostingSize: 64, Replicas: replicas, Metric: vec.L2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		sp.AssignPages(pages())
		return sp
	}
	da, err := diskann.Build(ds.Vectors, nil, diskann.Config{R: 16, LBuild: 32, PQM: pqm, Metric: vec.L2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	da.AssignPages(pages())
	static := func(o index.SearchOptions, nodes int) index.SearchOptions {
		return o.With(index.WithNodeCacheNodes(nodes), index.WithNodeCachePolicy(index.NodeCacheStatic))
	}
	beam := index.SearchOptions{SearchList: 20, BeamWidth: 4}
	// DiskANN builds its ADC table as 256 distances and IVF_PQ as 65, and
	// DiskANN never charges pricing its entry unit: one node, or the packed
	// entry page's members.
	diskannWant := func(entry int) func(index.Stats) counts {
		return func(s index.Stats) counts {
			return counts{dist: int64(s.DistComps) + 256, adc: int64(s.PQComps - entry), heap: -1, hits: int64(s.CachePages)}
		}
	}
	for _, c := range []struct {
		name string
		ix   index.Index
		opts index.SearchOptions
		want func(index.Stats) counts
	}{
		{"FLAT", flat.New(ds.Vectors, vec.L2, nil), index.SearchOptions{}, func(s index.Stats) counts {
			return counts{dist: int64(s.DistComps), heap: int64(s.DistComps)}
		}},
		{"IVF_FLAT", ivfFlat, index.SearchOptions{NProbe: 4}, func(s index.Stats) counts {
			return counts{dist: int64(s.DistComps), heap: int64(s.DistComps - ivfFlat.NList())}
		}},
		{"IVF_PQ", ivfPQ, index.SearchOptions{NProbe: 4}, func(s index.Stats) counts {
			return counts{dist: int64(s.DistComps) + 65, adc: int64(s.PQComps), heap: int64(s.PQComps)}
		}},
		{"HNSW", hn, index.SearchOptions{EfSearch: 32}, func(s index.Stats) counts {
			return counts{dist: int64(s.DistComps), heap: -1}
		}},
		// HNSW-SQ's code comparisons are charged as full distances.
		{"HNSW-SQ", hnSQ, index.SearchOptions{EfSearch: 32}, func(s index.Stats) counts {
			return counts{dist: int64(s.DistComps + s.PQComps), heap: -1}
		}},
		// Without replicas every probed posting row is scored once.
		{"SPANN", spannIndex(1), static(index.SearchOptions{NProbe: 6}, 8), func(s index.Stats) counts {
			return counts{dist: int64(s.DistComps), heap: -1, hits: int64(s.CachePages)}
		}},
		{"DISKANN-id", da, static(beam, 64), diskannWant(1)},
		{"DISKANN-page", da, static(beam.With(index.WithLayout(index.LayoutPage)), 16), diskannWant(da.PageCapacity())},
	} {
		var p index.Profile
		o := c.opts
		o.Recorder = &p
		res := c.ix.Search(ds.Queries.Row(0), 10, o)
		got, want := countsOf(&p), c.want(res.Stats)
		want.dims, want.subs = want.dist*dim, want.adc*pqm
		if want.heap < 0 {
			want.heap = got.heap
		}
		if got != want {
			t.Errorf("%s: counts %+v, want %+v from %+v", c.name, got, want, res.Stats)
		}
		if got.dist == 0 || got.heap == 0 || (c.opts.NodeCacheNodes > 0) != (got.hits > 0) {
			t.Errorf("%s: counts %+v miss work the search did", c.name, got)
		}
	}
}

// TestSPANNChargesReplicaCopies: a probe skips scoring the replica copies of
// rows an earlier posting scored, and Stats does not count them, but every
// posting row is still charged as a distance.
func TestSPANNChargesReplicaCopies(t *testing.T) {
	ds := workData(32)
	sp, err := spann.Build(ds.Vectors, nil, spann.Config{PostingSize: 64, Metric: vec.L2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var p index.Profile
	res := sp.Search(ds.Queries.Row(0), 10, index.SearchOptions{NProbe: 6, Recorder: &p})
	if got := countsOf(&p); got.dist <= int64(res.Stats.DistComps) {
		t.Errorf("charged %d distances for %d scored: no replica copy charged", got.dist, res.Stats.DistComps)
	}
}

func TestStepSize(t *testing.T) {
	if n := unsafe.Sizeof(index.Step{}); n > 72 {
		t.Errorf("index.Step is %d bytes, want at most 72", n)
	}
}
