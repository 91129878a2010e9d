package vdb

import (
	"context"
	"reflect"
	"testing"
	"time"

	"svdbench/internal/dataset"
	"svdbench/internal/index"
	"svdbench/internal/index/diskann"
	"svdbench/internal/sim"
	"svdbench/internal/trace"
)

// TestReplayEmitsCacheHits: steps carrying CachePages report them to the
// device's tracer as absorbed reads — page-size bytes each, no device
// traffic, no effect on the block-request counters.
func TestReplayEmitsCacheHits(t *testing.T) {
	h := newEngineHarness(Traits{Name: "neutral"})
	tr := trace.NewTracer(false)
	h.dev.Attach(tr)
	pageSize := h.dev.Config().PageSize
	qe := &QueryExec{Segments: [][]index.Step{{
		{Work: burn(time.Microsecond), Pages: []int64{1, 2}, CachePages: 3},
		{Work: burn(time.Microsecond), CachePages: 2},
	}}}
	h.query(0, qe, func(err error, _ sim.Duration) {
		if err != nil {
			t.Errorf("query failed: %v", err)
		}
	})
	h.run(t)
	readOps, _, readBytes, _ := tr.Totals()
	if readOps != 2 || readBytes != int64(2*pageSize) {
		t.Errorf("device totals = (%d, %d), want 2 page reads", readOps, readBytes)
	}
	sum := tr.Summarize(time.Second)
	if sum.CacheHits != 5 || sum.CacheBytes != int64(5*pageSize) {
		t.Errorf("summary cache = (%d, %d), want (5, %d)", sum.CacheHits, sum.CacheBytes, 5*pageSize)
	}
	wantRate := float64(5) / float64(7)
	if diff := sum.CacheHitRate - wantRate; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("summary hit rate = %v, want %v", sum.CacheHitRate, wantRate)
	}
}

// TestReplayCacheHitsWithoutTracer: an unattached device must replay cache
// steps without panicking (EmitCacheHit on a nil tracer is a no-op).
func TestReplayCacheHitsWithoutTracer(t *testing.T) {
	h := newEngineHarness(Traits{Name: "neutral"})
	qe := &QueryExec{Segments: [][]index.Step{{{CachePages: 4}}}}
	h.query(0, qe, func(err error, _ sim.Duration) {
		if err != nil {
			t.Errorf("query failed: %v", err)
		}
	})
	h.run(t)
	if h.eng.Served() != 1 {
		t.Errorf("served = %d, want 1", h.eng.Served())
	}
}

// lruCollection builds a small monolithic DiskANN collection with storage
// assigned, ready for cached recording.
func lruCollection(t testing.TB) (*Collection, *dataset.Dataset) {
	t.Helper()
	ds := testDataset(t, 300)
	traits := Milvus()
	traits.SegmentCapacity = 0
	col, err := NewCollection("cache-test", ds.Spec.Dim, ds.Spec.Metric, traits, IndexDiskANN, DefaultBuildParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := col.BulkLoad(ds.Vectors, nil); err != nil {
		t.Fatal(err)
	}
	var next int64
	col.AssignStorage(func(n int64) int64 { p := next; next += n; return p })
	return col, ds
}

// segmentedCollection is lruCollection's data split into three DiskANN
// segments, each with its own node caches, plus a growing tail: a search
// visits four units.
func segmentedCollection(t testing.TB) (*Collection, *dataset.Dataset) {
	t.Helper()
	ds := testDataset(t, 300)
	traits := Milvus()
	traits.SegmentCapacity = 100
	col, err := NewCollection("cache-test-seg", ds.Spec.Dim, ds.Spec.Metric, traits, IndexDiskANN, DefaultBuildParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := col.BulkLoad(ds.Vectors, nil); err != nil {
		t.Fatal(err)
	}
	if len(col.Segments()) < 3 {
		t.Fatalf("%d segments, want at least 3", len(col.Segments()))
	}
	var next int64
	col.AssignStorage(func(n int64) int64 { p := next; next += n; return p })
	for row := 0; row < 10; row++ {
		if _, err := col.Insert(ds.Vectors.Row(row*29), nil); err != nil {
			t.Fatal(err)
		}
	}
	return col, ds
}

// TestRecordQueriesDeterministicWithLRUCache is the fuzz-satellite's
// integration half: two independent, identically built collections record
// the same workload against a mutable (LRU) node cache and must produce
// byte-identical executions and identical cache counters — RecordQueries
// serialises itself when the cache is mutable, so host goroutine
// interleaving cannot leak in.
func TestRecordQueriesDeterministicWithLRUCache(t *testing.T) {
	opts := index.SearchOptions{
		SearchList: 20, BeamWidth: 4,
		NodeCacheNodes: 16, NodeCachePolicy: index.NodeCacheLRU,
	}
	if !opts.NodeCacheMutable() {
		t.Fatal("LRU options must report a mutable cache")
	}
	record := func() ([]QueryExec, string) {
		col, ds := lruCollection(t)
		execs := col.RecordQueries(ds.Queries, 10, opts)
		ix := col.Segments()[0].Index.(*diskann.Index)
		snap, ok := ix.CacheSnapshot(opts)
		if !ok {
			t.Fatal("no cache snapshot after recording")
		}
		return execs, snap.String()
	}
	execs1, snap1 := record()
	execs2, snap2 := record()
	if !reflect.DeepEqual(execs1, execs2) {
		t.Error("two identical LRU-cached recordings produced different executions")
	}
	if snap1 != snap2 {
		t.Errorf("cache snapshots differ:\n%s\n%s", snap1, snap2)
	}
	var cached int
	for _, qe := range execs1 {
		for _, seg := range qe.Segments {
			for _, s := range seg {
				cached += int(s.CachePages)
			}
		}
	}
	if cached == 0 {
		t.Error("LRU cache absorbed no pages across the workload")
	}
}

// TestRecordQueriesStaticMatchesSequential: with an immutable static cache
// the parallel recording path must agree with a sequential one.
func TestRecordQueriesStaticMatchesSequential(t *testing.T) {
	opts := index.SearchOptions{
		SearchList: 20, BeamWidth: 4,
		NodeCacheNodes: 16, NodeCachePolicy: index.NodeCacheStatic,
	}
	if opts.NodeCacheMutable() {
		t.Fatal("static options must not report a mutable cache")
	}
	col, ds := lruCollection(t)
	parallel := col.RecordQueries(ds.Queries, 10, opts)
	sequential := make([]QueryExec, ds.Queries.Len())
	for qi := range sequential {
		sequential[qi] = col.runOne(context.Background(), ds.Queries.Row(qi), 10, opts, true, 1)
	}
	if !reflect.DeepEqual(parallel, sequential) {
		t.Error("parallel static-cached recording differs from sequential")
	}
}
