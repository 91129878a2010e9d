package ivf

import (
	"reflect"
	"testing"

	"svdbench/internal/index"
	"svdbench/internal/vec"
)

// legacySearch is the pre-SearchInto search, kept as the reference: scalar
// vec.Distance per scanned row, a fresh heap and ADC table per query, and the
// per-cell AddWork/AddContiguousIO sequence the recorded profiles were built
// from. Only the probe order comes from the shared kmeans.NearestN.
func legacySearch(ix *Index, q []float32, k int, opts index.SearchOptions) index.Result {
	nprobe := opts.NProbe
	if nprobe <= 0 {
		nprobe = 1
	}
	rec := opts.Recorder
	cells := probeOrder(ix.centroids, q, nprobe)
	stats := index.Stats{DistComps: ix.centroids.Len()}
	dim := uint16(ix.data.Dim)
	rec.AddWork(index.Work{Dist: int32(ix.centroids.Len()), Dim: dim})

	var heap index.MaxHeap
	if ix.cfg.PQ {
		table := ix.quantizer.BuildTable(q)
		rec.AddWork(index.Work{Dist: 256/4 + 1, Dim: dim})
		m := ix.quantizer.M()
		for _, c := range cells {
			list := ix.lists[c]
			if ix.listPages != nil && len(ix.listPages[c]) > 0 {
				rec.AddContiguousIO(ix.listPages[c])
				stats.PagesRead += len(ix.listPages[c])
			}
			for _, row := range list {
				id := ix.extID(row)
				if opts.Filter != nil && !opts.Filter(id) {
					continue
				}
				d := table.Distance(ix.codes[int(row)*m : (int(row)+1)*m])
				stats.PQComps++
				heap.PushBounded(index.Neighbor{ID: id, Dist: d}, k)
			}
			rec.AddWork(index.Work{ADC: int32(len(list)), Heap: int32(len(list)), M: uint16(m)})
		}
	} else {
		for _, c := range cells {
			list := ix.lists[c]
			for _, row := range list {
				id := ix.extID(row)
				if opts.Filter != nil && !opts.Filter(id) {
					continue
				}
				d := vec.Distance(ix.cfg.Metric, q, ix.data.Row(int(row)))
				stats.DistComps++
				heap.PushBounded(index.Neighbor{ID: id, Dist: d}, k)
			}
			rec.AddWork(index.Work{Dist: int32(len(list)), Heap: int32(len(list)), Dim: dim})
		}
	}
	rec.Flush()
	return index.ResultFromNeighbors(heap.SortedAscending(), k, stats)
}

// probeOrder is the scalar reference of kmeans.NearestN: every centroid
// scored with vec.L2Sq, the n closest picked by (distance, index).
func probeOrder(centroids *vec.Matrix, q []float32, n int) []int {
	k := centroids.Len()
	if n > k {
		n = k
	}
	taken := make([]bool, k)
	out := make([]int, 0, n)
	for len(out) < n {
		best := -1
		var bestD float32
		for c := 0; c < k; c++ {
			if taken[c] {
				continue
			}
			if d := vec.L2Sq(q, centroids.Row(c)); best < 0 || d < bestD {
				best, bestD = c, d
			}
		}
		taken[best] = true
		out = append(out, best)
	}
	return out
}

func buildVariants(t *testing.T) map[string]*Index {
	t.Helper()
	ds := testData(t)
	ids := make([]int32, ds.Vectors.Len())
	for i := range ids {
		ids[i] = int32(2*i + 1)
	}
	out := map[string]*Index{}
	for name, cfg := range map[string]Config{
		"IVF_FLAT": {Metric: ds.Spec.Metric, Seed: 1},
		"IVF_PQ":   {Metric: ds.Spec.Metric, Seed: 1, PQ: true},
	} {
		ix, err := Build(ds.Vectors, ids, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var next int64
		ix.AssignPages(func(n int64) int64 { p := next; next += n; return p })
		out[name] = ix
	}
	return out
}

// TestSearchIntoMatchesLegacySearch: SearchInto — gathered batch scoring,
// cached norms, scratch-backed probe order, heap and ADC table — returns
// exactly the ids, distance bits, stats and recorded profile steps of the
// scalar search it replaced, for both variants, with and without a filter,
// on a fresh scratch per query and on one scratch reused across all queries
// and across the two variants.
func TestSearchIntoMatchesLegacySearch(t *testing.T) {
	ds := testData(t)
	filters := map[string]func(int32) bool{
		"none": nil,
		"some": func(id int32) bool { return id%5 != 1 },
	}
	reused := index.NewSearchScratch()
	var dst index.Result
	for name, ix := range buildVariants(t) {
		for fname, filter := range filters {
			for _, nprobe := range []int{0, 1, 7, ix.NList()} {
				for qi := 0; qi < ds.Queries.Len(); qi++ {
					q := ds.Queries.Row(qi)
					var wantProf, freshProf, reusedProf index.Profile
					want := legacySearch(ix, q, 10, index.SearchOptions{NProbe: nprobe, Filter: filter, Recorder: &wantProf})
					fresh := ix.Search(q, 10, index.SearchOptions{NProbe: nprobe, Filter: filter, Recorder: &freshProf})
					ix.SearchInto(q, 10, index.SearchOptions{NProbe: nprobe, Filter: filter, Recorder: &reusedProf, Scratch: reused}, &dst)
					for which, got := range map[string]index.Result{"fresh": fresh, "reused": dst} {
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s filter=%s nprobe=%d query %d (%s scratch):\n got %+v\nwant %+v", name, fname, nprobe, qi, which, got, want)
						}
					}
					if !reflect.DeepEqual(freshProf.Steps, wantProf.Steps) || !reflect.DeepEqual(reusedProf.Steps, wantProf.Steps) {
						t.Fatalf("%s filter=%s nprobe=%d query %d: recorded steps differ\nfresh  %+v\nreused %+v\nwant   %+v",
							name, fname, nprobe, qi, freshProf.Steps, reusedProf.Steps, wantProf.Steps)
					}
				}
			}
		}
	}
}

// TestSearchIntoSteadyStateZeroAlloc: with a reused scratch and dst neither
// variant allocates per query, filtered or not.
func TestSearchIntoSteadyStateZeroAlloc(t *testing.T) {
	ds := testData(t)
	for name, ix := range buildVariants(t) {
		for _, filter := range []func(int32) bool{nil, func(id int32) bool { return id%5 != 1 }} {
			opts := index.SearchOptions{NProbe: 8, Filter: filter, Scratch: index.NewSearchScratch()}
			var dst index.Result
			for qi := 0; qi < ds.Queries.Len(); qi++ {
				ix.SearchInto(ds.Queries.Row(qi), 10, opts, &dst)
			}
			qi := 0
			allocs := testing.AllocsPerRun(20, func() {
				ix.SearchInto(ds.Queries.Row(qi%ds.Queries.Len()), 10, opts, &dst)
				qi++
			})
			if allocs != 0 {
				t.Errorf("%s (filter %v): steady-state search allocates %.1f times per query, want 0", name, filter != nil, allocs)
			}
		}
	}
}
