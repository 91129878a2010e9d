package main

import (
	"slices"
	"time"

	"svdbench/internal/core"
	"svdbench/internal/index"
	"svdbench/internal/vdb"
)

// replayRound makes calls core.Run calls with one configuration. An
// operation is one simulated query; a call's latency sample is its host time
// per simulated query. Every call must produce the same virtual-time result.
func replayRound(sb *tracer, parent int32, execs []vdb.QueryExec, traits vdb.Traits, cfg core.RunConfig, calls int, r *roundSample) {
	for i := 0; i < calls; i++ {
		id := sb.begin(parent, "core.run", "")
		t0 := time.Now()
		m := core.Run(execs, traits, cfg).Metrics
		d := time.Since(t0)
		sb.end(id)
		if r.sim == nil {
			r.sim = &m
		}
		r.ops += m.Served + m.Failed
		if m.Failed > 0 || *r.sim != m {
			r.failed += m.Served + m.Failed
		}
		if m.Served > 0 {
			r.latUs = append(r.latUs, us(d)/float64(m.Served))
		}
	}
}

// verifyReplay fails the whole run when two rounds disagree on any
// virtual-time result, and returns the agreed one.
func verifyReplay(v *verdict, rounds []roundSample) {
	v.sim = *rounds[0].sim
	for i, r := range rounds {
		v.check(r.ops > 0, "round %d: no query served", i)
		if *r.sim != v.sim {
			v.failRun("round %d: virtual-time metrics differ from round 0", i)
		}
	}
}

// ---- replay-sync ---------------------------------------------------------

type replaySync struct {
	*mono
	execs []vdb.QueryExec
	cfg   core.RunConfig
}

func setupReplaySync(c *runConfig, sb *tracer, parent int32) (instance, error) {
	m, err := setupMono(c, sb, parent)
	if err != nil {
		return nil, err
	}
	id := sb.begin(parent, "collection.record_queries", "id layout")
	execs := m.col.RecordQueries(m.ds.Queries, k, m.opts)
	sb.end(id)
	return &replaySync{mono: m, execs: execs, cfg: core.RunConfig{
		Threads: 64, Duration: c.sizes.simWindow, Repetitions: 1, Seed: c.seed,
	}}, nil
}

func (s *replaySync) round(sb *tracer, parent int32) roundSample {
	var r roundSample
	start := time.Now()
	replayRound(sb, parent, s.execs, s.col.Traits(), s.cfg, s.c.sizes.replayCalls, &r)
	r.wall = time.Since(start)
	return r
}

func (s *replaySync) verify(rounds []roundSample) verdict {
	var v verdict
	verifyReplay(&v, rounds)
	v.requireRecall(recallOf(execIDs(s.execs), s.ds))
	return v
}

// ---- cell-pipelined ------------------------------------------------------

type cellPipelined struct {
	*mono
	popts index.SearchOptions // page layout, look-ahead 2, static node cache
	cfg   core.RunConfig
	execs []vdb.QueryExec // the latest round's recording
}

func setupCellPipelined(c *runConfig, sb *tracer, parent int32) (instance, error) {
	m, err := setupMono(c, sb, parent)
	if err != nil {
		return nil, err
	}
	s := &cellPipelined{mono: m, cfg: core.RunConfig{
		Threads: 32, Duration: c.sizes.simWindow, Repetitions: 1, Seed: c.seed,
		CoalesceReads: true, LookAhead: 2,
	}}
	s.popts = m.opts.With(index.WithLayout(index.LayoutPage), index.WithLookAhead(2),
		index.WithNodeCacheNodes(c.sizes.cacheNodes), index.WithNodeCachePolicy(index.NodeCacheStatic))
	// The page layout is packed on the first page-layout search; that is
	// set-up, not serving.
	id := sb.begin(parent, "diskann.page_layout", "")
	m.col.Search(m.ds.Queries.Row(0), k, s.popts)
	sb.end(id)
	return s, nil
}

func (s *cellPipelined) round(sb *tracer, parent int32) roundSample {
	var r roundSample
	start := time.Now()
	for i := 0; i < s.c.sizes.records; i++ {
		id := sb.begin(parent, "collection.record_queries", "page layout")
		s.execs = s.col.RecordQueries(s.ds.Queries, k, s.popts)
		sb.end(id)
	}
	replayRound(sb, parent, s.execs, s.col.Traits(), s.cfg, s.c.sizes.replayCalls, &r)
	r.wall = time.Since(start)
	return r
}

func (s *cellPipelined) verify(rounds []roundSample) verdict {
	var v verdict
	verifyReplay(&v, rounds)
	// Look-ahead and the node cache change when pages are read, never what
	// is found: ids must equal the plain page-layout search.
	plain := s.opts.With(index.WithLayout(index.LayoutPage))
	for qi := range s.execs {
		want := s.col.Search(s.ds.Queries.Row(qi), k, plain).IDs
		v.check(slices.Equal(s.execs[qi].IDs, want), "query %d: look-ahead + cache changed the result ids", qi)
	}
	v.requireRecall(recallOf(execIDs(s.execs), s.ds))
	return v
}
