package core

import (
	"io"
	"reflect"
	"testing"
	"time"

	"svdbench/internal/index"
	"svdbench/internal/vdb"
)

// monoDiskANN is the monolithic Milvus-DiskANN setup the cache experiment
// measures.
func monoDiskANN() vdb.Setup {
	return vdb.Setup{Engine: monoMilvus(), Index: vdb.IndexDiskANN}
}

// TestCacheReducesReadOpsAtIdenticalRecall is the PR's acceptance criterion:
// a static cache of at least beam-width nodes must yield strictly fewer
// device read operations at byte-identical results (hence identical recall).
func TestCacheReducesReadOpsAtIdenticalRecall(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an index stack")
	}
	b := tinyBench(t)
	st, err := b.Stack("cohere-small", monoDiskANN())
	if err != nil {
		t.Fatal(err)
	}
	cached := st.Opts.With(
		index.WithNodeCacheNodes(st.Opts.BeamWidth),
		index.WithNodeCachePolicy(index.NodeCacheStatic),
	)

	baseExecs := st.ExecsFor(st.Opts)
	cachedExecs := st.ExecsFor(cached)
	for qi := range baseExecs {
		if !reflect.DeepEqual(baseExecs[qi].IDs, cachedExecs[qi].IDs) {
			t.Fatalf("query %d: cached results differ from uncached", qi)
		}
	}
	if r := st.RecallFor(cached); r != st.Recall {
		t.Fatalf("cached recall %v != uncached %v", r, st.Recall)
	}

	base := b.RunCell(st, baseExecs, RunConfig{Threads: 4}, "cache-accept-off")
	hit := b.RunCell(st, cachedExecs, RunConfig{Threads: 4}, "cache-accept-static")
	if base.Metrics.CacheHits != 0 {
		t.Errorf("uncached run reports %d cache hits", base.Metrics.CacheHits)
	}
	if hit.Metrics.CacheHits == 0 {
		t.Error("cached run reports no cache hits")
	}
	if hit.Metrics.ReadOps >= base.Metrics.ReadOps {
		t.Errorf("cached read ops %d not strictly below uncached %d", hit.Metrics.ReadOps, base.Metrics.ReadOps)
	}
}

// TestExperimentsShareRunCells: run cells are named by their inputs, so
// cache's DiskANN "off" row and layout's "id" row — the same recording
// replayed under the same config — are one simulation in the run memo.
func TestExperimentsShareRunCells(t *testing.T) {
	if testing.Short() {
		t.Skip("builds index stacks")
	}
	b := tinyBench(t)
	b.RunDefaults.Duration = 20 * time.Millisecond
	cells := func(id string) int {
		exp, err := ExperimentByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := exp.Run(b, io.Discard); err != nil {
			t.Fatal(err)
		}
		return len(b.runs.slots)
	}
	// cache memoises its seven DiskANN rows; its SPANN rows replay unmemoised.
	if n := cells("cache"); n != 7 {
		t.Fatalf("cache left %d run cells, want 7", n)
	}
	if n := cells("layout"); n != 7+2 {
		t.Errorf("cache then layout left %d run cells, want 9: layout's id row is cache's off row", n)
	}
}
