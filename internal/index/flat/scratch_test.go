package flat

import (
	"reflect"
	"testing"

	"svdbench/internal/index"
	"svdbench/internal/vec"
)

// TestScratchReuseIdentity: the batched unfiltered scan with a reused
// scratch must match the fresh-scratch search exactly for every metric, and
// must leave the previous query's result as it was (a result that aliased
// scratch memory would change under the next query).
func TestScratchReuseIdentity(t *testing.T) {
	for _, metric := range []vec.Metric{vec.L2, vec.IP, vec.Cosine} {
		ds := testData()
		ix := New(ds.Vectors, metric, nil)
		scr := index.NewSearchScratch()
		var dsts [2]index.Result
		var prev index.Result
		for qi := 0; qi < ds.Queries.Len(); qi++ {
			q := ds.Queries.Row(qi)
			dst := &dsts[qi%2]
			base := ix.Search(q, 10, index.SearchOptions{})
			ix.SearchInto(q, 10, index.SearchOptions{Scratch: scr}, dst)
			if !reflect.DeepEqual(base.IDs, dst.IDs) || !reflect.DeepEqual(base.Dists, dst.Dists) ||
				base.Stats != dst.Stats {
				t.Fatalf("metric %v query %d: reused scratch changed results", metric, qi)
			}
			if last := dsts[(qi+1)%2]; qi > 0 && (!reflect.DeepEqual(prev.IDs, last.IDs) || !reflect.DeepEqual(prev.Dists, last.Dists)) {
				t.Fatalf("query %d changed query %d's result: SearchInto's result aliases the scratch", qi, qi-1)
			}
			prev = base
		}
	}
}

// scalarScan is the reference the chunked batch scan is pinned to: every row
// that passes the filter scored with scalar vec.Distance, in row order.
func scalarScan(data *vec.Matrix, metric vec.Metric, ids []int32, q []float32, k int, filter func(int32) bool) index.Result {
	var heap index.MaxHeap
	comps := 0
	for i := 0; i < data.Len(); i++ {
		id := int32(i)
		if ids != nil {
			id = ids[i]
		}
		if filter != nil && !filter(id) {
			continue
		}
		comps++
		heap.PushBounded(index.Neighbor{ID: id, Dist: vec.Distance(metric, q, data.Row(i))}, k)
	}
	return index.ResultFromNeighbors(heap.SortedAscending(), k, index.Stats{DistComps: comps})
}

// TestSearchMatchesScalarScan: filtered and unfiltered scans — over more
// rows than one chunk, with external ids, on an index built at once and on
// one grown row by row through Append — return exactly the ids, distance
// bits, stats and recorded CPU of the scalar per-row scan.
func TestSearchMatchesScalarScan(t *testing.T) {
	ds := testData() // 400 rows: one full chunk and a partial one
	ids := make([]int32, ds.Vectors.Len())
	for i := range ids {
		ids[i] = int32(3*i + 5)
	}
	filters := map[string]func(int32) bool{
		"none":   nil,
		"sparse": func(id int32) bool { return id%7 == 0 },
		"dense":  func(id int32) bool { return id%7 != 0 },
		"empty":  func(int32) bool { return false },
	}
	for _, metric := range []vec.Metric{vec.L2, vec.IP, vec.Cosine} {
		grown := New(vec.NewMatrix(0, ds.Vectors.Dim), metric, []int32{})
		for i, id := range ids {
			grown.Append(ds.Vectors.Row(i), id)
		}
		for name, ix := range map[string]*Index{"built": New(ds.Vectors, metric, ids), "grown": grown} {
			scr := index.NewSearchScratch()
			for fname, filter := range filters {
				for qi := 0; qi < ds.Queries.Len(); qi++ {
					q := ds.Queries.Row(qi)
					want := scalarScan(ds.Vectors, metric, ids, q, 10, filter)
					var got index.Result
					var prof index.Profile
					ix.SearchInto(q, 10, index.SearchOptions{Filter: filter, Scratch: scr, Recorder: &prof}, &got)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%v %s filter=%s query %d:\n got %+v\nwant %+v", metric, name, fname, qi, got, want)
					}
					var steps []index.Step
					if n := int32(want.Stats.DistComps); n > 0 {
						steps = []index.Step{{Work: index.Work{Dist: n, Heap: n, Dim: uint16(ds.Vectors.Dim)}}}
					}
					if !reflect.DeepEqual(prof.Steps, steps) {
						t.Fatalf("%v %s filter=%s query %d: recorded %+v, want %+v", metric, name, fname, qi, prof.Steps, steps)
					}
				}
			}
		}
	}
}

func TestAppendNeedsExplicitIDs(t *testing.T) {
	ix := New(vec.NewMatrix(0, 4), vec.L2, nil)
	defer func() {
		if recover() == nil {
			t.Error("Append to an identity-id index did not panic")
		}
	}()
	ix.Append(make([]float32, 4), 0)
}

// TestSearchSteadyStateZeroAlloc: the scan, unfiltered or filtered, with a
// reused scratch and dst performs zero heap allocations per query.
func TestSearchSteadyStateZeroAlloc(t *testing.T) {
	t.Run("unfiltered", func(t *testing.T) { steadyStateZeroAlloc(t, nil) })
	t.Run("filtered", func(t *testing.T) { steadyStateZeroAlloc(t, func(id int32) bool { return id%3 != 0 }) })
}

func steadyStateZeroAlloc(t *testing.T, filter func(int32) bool) {
	ds := testData()
	ix := New(ds.Vectors, vec.Cosine, nil)
	opts := index.SearchOptions{Scratch: index.NewSearchScratch(), Filter: filter}
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
		t.Fatalf("steady-state scan allocates %.1f times per query, want 0", allocs)
	}
}
