package vdb

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"svdbench/internal/dataset"
	"svdbench/internal/index"
)

// mixedCollection builds the shape the single-query path has to get right:
// 13 IVF_FLAT segments, a growing tail and tombstones in sealed rows and in
// the tail.
func mixedCollection(t testing.TB) (*Collection, *dataset.Dataset) {
	t.Helper()
	ds := testDataset(t, 1300)
	tr := Milvus()
	tr.SegmentCapacity = 100
	col, err := NewCollection("mixed", ds.Spec.Dim, ds.Spec.Metric, tr, IndexIVFFlat, DefaultBuildParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := col.BulkLoad(ds.Vectors, nil); err != nil {
		t.Fatal(err)
	}
	if len(col.Segments()) != 13 {
		t.Fatalf("%d segments, want 13", len(col.Segments()))
	}
	for row := 0; row < 60; row++ {
		if _, err := col.Insert(ds.Vectors.Row(row*7), nil); err != nil {
			t.Fatal(err)
		}
	}
	for id := int32(0); id < 1360; id += 17 {
		col.Delete(id)
	}
	return col, ds
}

// TestSingleQueryMatchesBatch: Search and Record (units fanned out over
// GOMAXPROCS workers) return what SearchBatch and RecordQueries (queries
// fanned out, units in a loop) return for the same query, with the collection's retained scratch and with a caller's, and a
// one-row batch takes the inline path to the same answer.
func TestSingleQueryMatchesBatch(t *testing.T) {
	col, ds := mixedCollection(t)
	opts := index.SearchOptions{NProbe: 4}
	batch := col.SearchBatch(context.Background(), ds.Queries, 10, opts)
	recorded := col.RecordQueries(ds.Queries, 10, opts)
	own := opts
	own.Scratch = index.NewSearchScratch()
	for qi := range batch {
		q := ds.Queries.Row(qi)
		for name, got := range map[string]QueryExec{
			"retained scratch": col.Search(q, 10, opts),
			"caller scratch":   col.Search(q, 10, own),
		} {
			if !reflect.DeepEqual(got, batch[qi]) {
				t.Fatalf("query %d: Search (%s) differs from SearchBatch\n got %+v\nwant %+v", qi, name, got, batch[qi])
			}
		}
		if got := col.Record(q, 10, opts); !reflect.DeepEqual(got, recorded[qi]) {
			t.Fatalf("query %d: Record differs from RecordQueries\n got %+v\nwant %+v", qi, got, recorded[qi])
		}
		if len(recorded[qi].Segments) != 14 {
			t.Fatalf("query %d: %d recorded units, want 13 segments + tail", qi, len(recorded[qi].Segments))
		}
		for _, id := range batch[qi].IDs {
			if col.Deleted(id) {
				t.Fatalf("query %d returned tombstoned id %d", qi, id)
			}
		}
	}
	one := dataset.Generate(dataset.Spec{Name: "one", N: 10, Dim: ds.Spec.Dim, NumQueries: 1, Seed: 3, Metric: ds.Spec.Metric, GroundK: 1})
	if got := col.SearchBatch(context.Background(), one.Queries, 10, opts); len(got) != 1 ||
		!reflect.DeepEqual(got[0], col.Search(one.Queries.Row(0), 10, opts)) {
		t.Fatal("one-row SearchBatch differs from Search")
	}
}

// TestSearchAllocations pins the single-query path's steady state: the
// result ids, plus the tombstone-filter closure when anything is deleted,
// plus the helpers' goroutines and counter when the units fan out — not a
// goroutine, two channels and eight scratches per unit.
func TestSearchAllocations(t *testing.T) {
	mono, monoDS := lruCollection(t)
	mixed, mixedDS := mixedCollection(t)
	for _, tc := range []struct {
		name string
		col  *Collection
		ds   *dataset.Dataset
		opts index.SearchOptions
		max  float64
	}{
		{"one DiskANN segment", mono, monoDS, index.SearchOptions{SearchList: 20, BeamWidth: 4}, 4},
		{"13 IVF_FLAT segments + tail + tombstones", mixed, mixedDS, index.SearchOptions{NProbe: 8}, 16},
	} {
		nq := tc.ds.Queries.Len()
		for qi := 0; qi < nq; qi++ {
			tc.col.Search(tc.ds.Queries.Row(qi), 10, tc.opts)
		}
		qi := 0
		allocs := testing.AllocsPerRun(50, func() {
			tc.col.Search(tc.ds.Queries.Row(qi%nq), 10, tc.opts)
			qi++
		})
		if allocs > tc.max {
			t.Errorf("%s: Search allocates %.1f times per query, want ≤ %v", tc.name, allocs, tc.max)
		}
	}
}

// TestConcurrentSearch: eight goroutines searching one collection at once —
// contending for the retained scratch and helper scratches — get the
// sequential answers. Run under -race this is the audit of the scratch
// hand-off.
func TestConcurrentSearch(t *testing.T) {
	col, ds := mixedCollection(t)
	opts := index.SearchOptions{NProbe: 4}
	nq := ds.Queries.Len()
	want := make([]QueryExec, nq)
	for qi := range want {
		want[qi] = col.Search(ds.Queries.Row(qi), 10, opts)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3*nq; i++ {
				qi := (g + i) % nq
				var got QueryExec
				if i%4 == 0 {
					got = col.Record(ds.Queries.Row(qi), 10, opts)
					got.Segments = nil
				} else {
					got = col.Search(ds.Queries.Row(qi), 10, opts)
				}
				if !reflect.DeepEqual(got, want[qi]) {
					t.Errorf("goroutine %d query %d: concurrent result differs from sequential", g, qi)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDeleteKeepsLenHonest: Len counts live vectors whatever is passed to
// Delete — ids never assigned are ignored, a repeated delete counts once.
func TestDeleteKeepsLenHonest(t *testing.T) {
	ds := testDataset(t, 300)
	col, _ := NewCollection("c", ds.Spec.Dim, ds.Spec.Metric, Qdrant(), IndexHNSW, DefaultBuildParams())
	if err := col.BulkLoad(ds.Vectors, nil); err != nil {
		t.Fatal(err)
	}
	tailID, err := col.Insert(ds.Queries.Row(0), Payload{"k": "v"})
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() != 301 {
		t.Fatalf("Len = %d, want 301", col.Len())
	}
	for _, unknown := range []int32{-1, tailID + 1, 1 << 30} {
		col.Delete(unknown)
		if col.Deleted(unknown) || col.Len() != 301 {
			t.Fatalf("Delete(%d) of a never-assigned id: Deleted=%v Len=%d, want false and 301", unknown, col.Deleted(unknown), col.Len())
		}
	}
	col.Delete(5)
	col.Delete(5)
	if col.Len() != 300 {
		t.Fatalf("Len = %d after deleting a sealed id twice, want 300", col.Len())
	}
	col.Delete(tailID)
	// A tombstoned tail row stays in the tail: a search still visits the
	// one segment and the tail.
	units := len(col.Record(ds.Queries.Row(0), 10, index.SearchOptions{EfSearch: 32}).Segments)
	if col.Len() != 299 || units != 2 || col.Payload(tailID) != nil {
		t.Fatalf("after deleting the tail id: Len=%d units=%d payload=%v, want 299, 2, nil", col.Len(), units, col.Payload(tailID))
	}
	// The id after the tail becomes valid once assigned.
	next, _ := col.Insert(ds.Queries.Row(1), nil)
	col.Delete(next)
	if !col.Deleted(next) || col.Len() != 299 {
		t.Fatalf("Delete of a freshly assigned id: Deleted=%v Len=%d, want true and 299", col.Deleted(next), col.Len())
	}
}

// TestFanOutMatchesSerial: Search and Record fan a lone query's units out
// over GOMAXPROCS workers and must return the width-1 loop's answer — ids,
// Stats and every recorded Segment — at any width and whatever order the
// units finish in. Both collections hold sealed rows re-inserted into the
// growing tail, and the tie queries are such rows: the row and its copy tie
// exactly under different ids, one from a segment and one from the tail.
func TestFanOutMatchesSerial(t *testing.T) {
	mixed, mixedDS := mixedCollection(t)
	seg, segDS := segmentedCollection(t)
	for id := int32(5); id < 310; id += 23 {
		seg.Delete(id)
	}
	for _, tc := range []struct {
		name string
		col  *Collection
		ds   *dataset.Dataset
		opts index.SearchOptions
		// copyOf maps tail row r to the sealed id it re-inserted.
		copyOf func(r int32) int32
	}{
		{"13 IVF_FLAT segments + tail + tombstones", mixed, mixedDS, index.SearchOptions{NProbe: 8},
			func(r int32) int32 { return 7 * r }},
		{"3 DiskANN segments + static cache + tail + tombstones", seg, segDS,
			index.SearchOptions{SearchList: 20, BeamWidth: 4, NodeCacheNodes: 16, NodeCachePolicy: index.NodeCacheStatic},
			func(r int32) int32 { return 29 * r }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sealed := int32(tc.ds.Vectors.Len())
			var queries [][]float32
			var ties [][2]int32
			for r := int32(0); r < 10 && len(ties) < 4; r++ {
				if a, b := tc.copyOf(r), sealed+r; !tc.col.Deleted(a) && !tc.col.Deleted(b) {
					queries = append(queries, tc.ds.Vectors.Row(int(a)))
					ties = append(ties, [2]int32{a, b})
				}
			}
			for qi := 0; qi < tc.ds.Queries.Len(); qi++ {
				queries = append(queries, tc.ds.Queries.Row(qi))
			}
			ctx := context.Background()
			wantSearch := make([]QueryExec, len(queries))
			wantRecord := make([]QueryExec, len(queries))
			for qi, q := range queries {
				wantSearch[qi] = tc.col.runOne(ctx, q, 10, tc.opts, false, 1)
				wantRecord[qi] = tc.col.runOne(ctx, q, 10, tc.opts, true, 1)
			}
			for i, tie := range ties {
				if ids := wantSearch[i].IDs; len(ids) < 2 || ids[0] != tie[0] || ids[1] != tie[1] {
					t.Fatalf("tie query %d: ids %v, want the sealed row %d and its tail copy %d first", i, ids, tie[0], tie[1])
				}
			}
			for _, procs := range []int{1, 2, 4} {
				prev := runtime.GOMAXPROCS(procs)
				for rep := 0; rep < 3; rep++ {
					for qi, q := range queries {
						if got := tc.col.Search(q, 10, tc.opts); !reflect.DeepEqual(got, wantSearch[qi]) {
							t.Errorf("GOMAXPROCS %d query %d: Search differs from the width-1 loop\n got %+v\nwant %+v", procs, qi, got, wantSearch[qi])
						}
						if got := tc.col.Record(q, 10, tc.opts); !reflect.DeepEqual(got, wantRecord[qi]) {
							t.Errorf("GOMAXPROCS %d query %d: Record differs from the width-1 loop", procs, qi)
						}
					}
				}
				runtime.GOMAXPROCS(prev)
			}
		})
	}
}

// BenchmarkSearch is the single-query path end to end: one DiskANN segment
// (one unit, the serial loop) and 13 IVF_FLAT segments with a growing tail
// and tombstones (fanned out over GOMAXPROCS workers), per query.
func BenchmarkSearch(b *testing.B) {
	mono, monoDS := lruCollection(b)
	mixed, mixedDS := mixedCollection(b)
	for _, bc := range []struct {
		name string
		col  *Collection
		ds   *dataset.Dataset
		opts index.SearchOptions
	}{
		{"diskann-1seg", mono, monoDS, index.SearchOptions{SearchList: 20, BeamWidth: 4}},
		{"ivf-13seg-tail", mixed, mixedDS, index.SearchOptions{NProbe: 8}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			nq := bc.ds.Queries.Len()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.col.Search(bc.ds.Queries.Row(i%nq), 10, bc.opts)
			}
		})
	}
}
