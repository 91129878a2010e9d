package diskann

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"svdbench/internal/binenc"
	"svdbench/internal/dataset"
	"svdbench/internal/index"
	"svdbench/internal/vec"
)

var updateGoldens = flag.Bool("update", false, "rewrite testdata/profiles.golden and testdata/snapshots.golden")

// profileIndex is one golden fixture: external ids differ from rows and the
// storage regions start at a non-zero base, so a kernel that confuses rows
// with ids, or unit ids with page addresses, cannot reproduce the file.
func profileIndex(t *testing.T, name string, n, dim, queries int, cfg Config) (*dataset.Dataset, *Index) {
	t.Helper()
	ds := dataset.Generate(dataset.Spec{
		Name: name, N: n, Dim: dim, NumQueries: queries,
		Clusters: 8, Seed: 23, Metric: vec.Cosine, GroundK: 10,
	})
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = 100_000 + 3*int32(i)
	}
	cfg.Metric, cfg.Seed = vec.Cosine, 5
	ix, err := Build(ds.Vectors, ids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	next := int64(7_001)
	ix.AssignPages(func(np int64) int64 { p := next; next += np + 13; return p })
	return ds, ix
}

// profileDigest hashes everything a recorded search produces for every
// query in order — ids, distance bits, Stats, and each Step's price under
// the default cost model, pages, Contiguous, CachePages and Prefetch runs —
// and sums the Stats for a
// human-readable tail. LRU rows depend on the query order; it is fixed.
func profileDigest(ds *dataset.Dataset, ix *Index, opts index.SearchOptions) string {
	h := sha256.New()
	put := func(v int64) { binary.Write(h, binary.LittleEndian, v) }
	putBool := func(b bool) {
		if b {
			put(1)
		} else {
			put(0)
		}
	}
	putPages := func(pages []int64) {
		put(int64(len(pages)))
		for _, p := range pages {
			put(p)
		}
	}
	var total index.Stats
	cost := index.DefaultCostModel()
	for qi := 0; qi < ds.Queries.Len(); qi++ {
		res, prof := recordOne(ix, ds.Queries.Row(qi), opts)
		put(int64(len(res.IDs)))
		for i, id := range res.IDs {
			put(int64(id))
			put(int64(math.Float32bits(res.Dists[i])))
		}
		s := res.Stats
		total.Add(s)
		for _, v := range []int{s.DistComps, s.PQComps, s.Hops, s.PagesRead, s.CachePages, s.PrefetchPages, s.PrefetchUsed} {
			put(int64(v))
		}
		put(int64(len(prof.Steps)))
		for _, st := range prof.Steps {
			put(int64(cost.Price(&st)))
			putPages(st.Pages)
			putBool(st.Contiguous)
			put(int64(st.CachePages))
			put(int64(len(st.Prefetch)))
			for _, pf := range st.Prefetch {
				putPages(pf.Pages)
				putBool(pf.Contiguous)
			}
		}
	}
	return fmt.Sprintf("%x hops=%d pages=%d cached=%d dist=%d pq=%d pf=%d/%d",
		h.Sum(nil)[:16], total.Hops, total.PagesRead, total.CachePages,
		total.DistComps, total.PQComps, total.PrefetchUsed, total.PrefetchPages)
}

// snapshotSum is the SHA-256 of the index's VAMA0001 snapshot: the graph,
// the medoid, the PQ codebooks and the codes, i.e. everything Build decides.
func snapshotSum(t *testing.T, ix *Index) []byte {
	t.Helper()
	h := sha256.New()
	w := binenc.NewWriter(h)
	ix.WriteTo(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return h.Sum(nil)
}

// TestProfilesGolden pins recorded executions of both layouts against a
// reference frozen while the id layout and the page layout still had a beam
// loop each. The single kernel must reproduce it byte for byte; it is the
// test that fails if the loops are ever forked again with a drift. One
// "snapshot" line per fixture pins the builder the same way: it was generated
// on the commit before robust-prune scoring moved to the batch kernel. Three
// shapes: dim 32 (one page per node, 108 members per page group), dim 1536
// (two pages per node, two members per group), and dim 32 on 128-byte pages
// (two pages per node, one member per two-page group).
func TestProfilesGolden(t *testing.T) {
	fixtures := []struct {
		name            string
		n, dim, queries int
		cfg             Config
	}{
		{"dim32", 1500, 32, 40, Config{R: 32, LBuild: 64, PQM: 8}},
		{"dim1536", 300, 1536, 12, Config{R: 48, LBuild: 32, PQM: 48}},
		{"dim32-p128", 600, 32, 16, Config{R: 16, LBuild: 32, PQM: 8, PageSize: 128}},
	}
	base := index.SearchOptions{SearchList: 20, BeamWidth: 4}
	variants := []struct {
		name string
		opts index.SearchOptions
	}{
		{"L20W4", base},
		{"L30W1", index.SearchOptions{SearchList: 30, BeamWidth: 1}},
		{"L3W2-floor", index.SearchOptions{SearchList: 3, BeamWidth: 2}},
		{"la2", base.With(index.WithLookAhead(2))},
		{"static64", base.With(index.WithNodeCacheNodes(64), index.WithNodeCachePolicy(index.NodeCacheStatic))},
		{"lru64-la3", base.With(index.WithNodeCacheNodes(64), index.WithNodeCachePolicy(index.NodeCacheLRU), index.WithLookAhead(3))},
		{"filter", base.With(index.WithFilter(func(id int32) bool { return id%2 == 0 }))},
	}
	var got bytes.Buffer
	for _, f := range fixtures {
		ds, ix := profileIndex(t, "profiles-"+f.name, f.n, f.dim, f.queries, f.cfg)
		fmt.Fprintf(&got, "%s shape pages/node=%d capacity=%d pages/group=%d\n",
			f.name, ix.PagesPerNode(), ix.PageCapacity(), ix.PagesPerGroup())
		fmt.Fprintf(&got, "%s warm %v\n", f.name, ix.CacheWarmNodes(20))
		fmt.Fprintf(&got, "%s snapshot sha256=%x\n", f.name, snapshotSum(t, ix))
		for _, layout := range []string{index.LayoutID, index.LayoutPage} {
			for _, v := range variants {
				fmt.Fprintf(&got, "%s %s %s %s\n", f.name, layout, v.name,
					profileDigest(ds, ix, v.opts.With(index.WithLayout(layout))))
			}
		}
	}
	path := filepath.Join("testdata", "profiles.golden")
	if *updateGoldens {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Errorf("recorded profiles drifted from %s (run the parent's kernel with -update only if the change is intended)\n--- got\n%s--- want\n%s", path, got.Bytes(), want)
	}
}
