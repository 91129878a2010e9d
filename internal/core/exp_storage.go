package core

import (
	"context"
	"fmt"

	"svdbench/internal/index"
	"svdbench/internal/vdb"
)

// storageStacks are the two storage-based index families Extensions D–G
// measure over cohere-large: DiskANN on the monolithic Milvus stack (shared
// with Ext-C) and SPANN built raw over the same vectors, nprobe tuned to the
// recall target.
type storageStacks struct {
	b  *Bench
	da *Stack
	sp *spannStack
}

func (b *Bench) storageStacks(ctx context.Context) (storageStacks, error) {
	da, err := b.StackContext(ctx, "cohere-large", vdb.Setup{Engine: monoMilvus(), Index: vdb.IndexDiskANN})
	if err != nil {
		return storageStacks{}, err
	}
	sp, err := b.spannContext(ctx, "cohere-large")
	return storageStacks{b: b, da: da, sp: sp}, err
}

// storageRow is one row of Extensions E–G: an index family's recording at
// opts, replayed under cfg.
type storageRow struct {
	spann bool
	opts  index.SearchOptions
	cfg   RunConfig
}

// name labels the row's index with the parameters it searches at.
func (r storageRow) name() string {
	if r.spann {
		return fmt.Sprintf("SPANN (nprobe=%d)", r.opts.NProbe)
	}
	return fmt.Sprintf("DiskANN (W=%d, L=%d)", r.opts.BeamWidth, r.opts.SearchList)
}

// storageOut is a measured storage row: the recording's recall@10, query
// count and summed Stats, and the replay's Metrics.
type storageOut struct {
	recall float64
	nq     int
	stats  index.Stats
	m      Metrics
}

// readsPerQuery is the device read requests per served query.
func (o storageOut) readsPerQuery() float64 {
	if o.m.Served == 0 {
		return 0
	}
	return float64(o.m.ReadOps) / float64(o.m.Served)
}

// measure runs rows as one grid. A DiskANN row is a memoised run cell under
// the monolithic Milvus engine; a SPANN row replays under neutralEngine.
func (s storageStacks) measure(ctx context.Context, rows []storageRow) ([]storageOut, error) {
	key := func(r storageRow) string {
		return fmt.Sprintf("cohere-large/%s/%s/t=%d", r.name(), variantKey(r.opts), r.cfg.Threads)
	}
	return measure(ctx, s.b.sched(), rows, key, func(ctx context.Context, r storageRow) (o storageOut, err error) {
		var execs []vdb.QueryExec
		var out RunOutput
		if r.spann {
			execs, o.recall = s.sp.record(r.opts)
			out, err = RunContext(ctx, execs, neutralEngine, s.b.mergeDefaults(r.cfg))
		} else {
			execs, o.recall = s.da.ExecsFor(r.opts), s.da.RecallFor(r.opts)
			out, err = s.b.run(ctx, s.da, r.opts, r.cfg)
		}
		o.nq, o.stats, o.m = len(execs), totalStats(execs), out.Metrics
		return o, err
	})
}

// totalStats sums the recorded search statistics across executions.
func totalStats(execs []vdb.QueryExec) index.Stats {
	var s index.Stats
	for i := range execs {
		s.Add(execs[i].Stats)
	}
	return s
}
