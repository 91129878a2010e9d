package spann

import (
	"reflect"
	"testing"

	"svdbench/internal/index"
)

// cachedNProbe drives every cache test at a probe count that touches
// several postings per query.
const cachedNProbe = 8

// profilePages counts the pages a recorded profile read and the pages its
// node cache absorbed.
func profilePages(p *index.Profile) (pages, cached int) {
	for _, s := range p.Steps {
		pages += len(s.Pages)
		cached += int(s.CachePages)
	}
	return pages, cached
}

func spannCacheOpts(policy string, nodes int) index.SearchOptions {
	return index.SearchOptions{NProbe: cachedNProbe, NodeCacheNodes: nodes, NodeCachePolicy: policy}
}

// TestCacheResultsIdentical: the posting cache absorbs reads and must never
// change which postings are probed or what they return.
func TestCacheResultsIdentical(t *testing.T) {
	ds := testData(t)
	ix := build(t, ds, Config{PostingSize: 64})
	base := index.SearchOptions{NProbe: cachedNProbe}
	for _, policy := range []string{index.NodeCacheStatic, index.NodeCacheLRU} {
		for qi := 0; qi < ds.Queries.Len(); qi++ {
			want := ix.Search(ds.Queries.Row(qi), 10, base)
			got := ix.Search(ds.Queries.Row(qi), 10, spannCacheOpts(policy, 16))
			if !reflect.DeepEqual(want.IDs, got.IDs) || !reflect.DeepEqual(want.Dists, got.Dists) {
				t.Fatalf("policy=%s query=%d: cached results differ from uncached", policy, qi)
			}
		}
	}
}

// TestCachePageConservation: PagesRead+CachePages must equal the uncached
// PagesRead for every query, and the recorded profile must agree.
func TestCachePageConservation(t *testing.T) {
	ds := testData(t)
	ix := build(t, ds, Config{PostingSize: 64})
	base := index.SearchOptions{NProbe: cachedNProbe}
	for _, policy := range []string{index.NodeCacheStatic, index.NodeCacheLRU} {
		for qi := 0; qi < ds.Queries.Len(); qi++ {
			want := ix.Search(ds.Queries.Row(qi), 10, base)
			var prof index.Profile
			opts := spannCacheOpts(policy, 8)
			opts.Recorder = &prof
			got := ix.Search(ds.Queries.Row(qi), 10, opts)
			if got.Stats.PagesRead+got.Stats.CachePages != want.Stats.PagesRead {
				t.Fatalf("policy=%s query=%d: read %d + cached %d != uncached %d",
					policy, qi, got.Stats.PagesRead, got.Stats.CachePages, want.Stats.PagesRead)
			}
			if pages, cached := profilePages(&prof); pages != got.Stats.PagesRead || cached != got.Stats.CachePages {
				t.Fatalf("policy=%s query=%d: profile (%d,%d) != stats (%d,%d)", policy, qi,
					pages, cached, got.Stats.PagesRead, got.Stats.CachePages)
			}
		}
	}
}

// TestStaticCacheStrictlyReducesReads: warming the postings nearest the
// navigator entry guarantees hits, so device reads strictly drop.
func TestStaticCacheStrictlyReducesReads(t *testing.T) {
	ds := testData(t)
	ix := build(t, ds, Config{PostingSize: 64})
	base := index.SearchOptions{NProbe: cachedNProbe}
	opts := spannCacheOpts(index.NodeCacheStatic, cachedNProbe)
	var baseReads, cachedReads, cachedPages int
	for qi := 0; qi < ds.Queries.Len(); qi++ {
		baseReads += ix.Search(ds.Queries.Row(qi), 10, base).Stats.PagesRead
		res := ix.Search(ds.Queries.Row(qi), 10, opts)
		cachedReads += res.Stats.PagesRead
		cachedPages += res.Stats.CachePages
	}
	if cachedReads >= baseReads {
		t.Errorf("cached reads %d not strictly below uncached %d", cachedReads, baseReads)
	}
	if cachedPages == 0 {
		t.Error("static posting cache absorbed no pages")
	}
}

// TestCacheWarmPostingsOrdered: the warm set is unique, capped, and ordered
// by centroid distance from the navigator entry.
func TestCacheWarmPostingsOrdered(t *testing.T) {
	ds := testData(t)
	ix := build(t, ds, Config{PostingSize: 64})
	warm := ix.CacheWarmPostings(ix.Postings() + 10)
	if len(warm) == 0 || len(warm) > ix.Postings() {
		t.Fatalf("warm set size %d, want 1..%d", len(warm), ix.Postings())
	}
	seen := map[int32]bool{}
	for _, p := range warm {
		if p < 0 || int(p) >= ix.Postings() {
			t.Fatalf("warm posting %d out of range", p)
		}
		if seen[p] {
			t.Fatalf("warm posting %d duplicated", p)
		}
		seen[p] = true
	}
	small := ix.CacheWarmPostings(3)
	if len(small) != 3 {
		t.Fatalf("capped warm set size %d, want 3", len(small))
	}
	if !reflect.DeepEqual(small, warm[:3]) {
		t.Errorf("capped warm set %v is not a prefix of the full ordering %v", small, warm[:3])
	}
}

// TestCacheSnapshotCounts: counters surface through CacheSnapshot and obey
// hits+misses == touches.
func TestCacheSnapshotCounts(t *testing.T) {
	ds := testData(t)
	ix := build(t, ds, Config{PostingSize: 64})
	opts := spannCacheOpts(index.NodeCacheLRU, 8)
	if _, ok := ix.CacheSnapshot(opts); ok {
		t.Fatal("snapshot reported before any search created the cache")
	}
	for qi := 0; qi < ds.Queries.Len(); qi++ {
		ix.Search(ds.Queries.Row(qi), 10, opts)
	}
	snap, ok := ix.CacheSnapshot(opts)
	if !ok {
		t.Fatal("no snapshot after cached searches")
	}
	if snap.Hits+snap.Misses != snap.Touches() {
		t.Errorf("hits %d + misses %d != touches %d", snap.Hits, snap.Misses, snap.Touches())
	}
	if snap.Touches() == 0 {
		t.Error("cache saw no traffic")
	}
}
