package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"svdbench/internal/core"
	"svdbench/internal/dataset"
	"svdbench/internal/index"
	"svdbench/internal/vdb"
	"svdbench/internal/vec"
)

// generate builds a dataset of the catalog's shape (768-d, cosine, 64
// clusters, spread 0.9) from the seed. Ground truth is kept to depth k only:
// the benchmark checks recall@10 and nothing deeper.
func generate(sb *tracer, parent int32, name string, n, queries int, seed int64) (*dataset.Dataset, time.Duration) {
	id := sb.begin(parent, "dataset.generate", name)
	start := time.Now()
	ds := dataset.Generate(dataset.Spec{
		Name: name, N: n, Dim: 768, NumQueries: queries,
		Clusters: 64, Spread: 0.9, Seed: seed, Metric: vec.Cosine, GroundK: k,
	})
	d := time.Since(start)
	sb.end(id)
	return ds, d
}

// recallOf is mean recall@10 of result id lists against ground truth.
func recallOf(ids [][]int32, ds *dataset.Dataset) float64 {
	return dataset.MeanRecallAtK(ids, ds.GroundTruth, k)
}

func execIDs(execs []vdb.QueryExec) [][]int32 {
	ids := make([][]int32, len(execs))
	for i := range execs {
		ids[i] = execs[i].IDs
	}
	return ids
}

// mono is the state the three DiskANN workloads share: a generated dataset
// and one Milvus-DiskANN collection small enough to be a single segment.
type mono struct {
	c        *runConfig
	ds       *dataset.Dataset
	col      *vdb.Collection
	opts     index.SearchOptions
	genDur   time.Duration
	buildDur time.Duration
}

// diskannOpts are the search-time parameters of the DiskANN workloads: the
// paper's beam width and a search list that clears the recall floor.
var diskannOpts = index.SearchOptions{SearchList: 20, BeamWidth: 4}

func setupMono(c *runConfig, sb *tracer, parent int32) (*mono, error) {
	m := &mono{c: c, opts: diskannOpts}
	m.ds, m.genDur = generate(sb, parent, "mono", c.sizes.monoN, c.sizes.queries, c.seed)
	col, err := vdb.NewCollection("mono", m.ds.Spec.Dim, m.ds.Spec.Metric, vdb.Milvus(), vdb.IndexDiskANN, vdb.DefaultBuildParams())
	if err != nil {
		return nil, err
	}
	id := sb.begin(parent, "collection.bulk_load", "DISKANN")
	start := time.Now()
	err = col.BulkLoad(m.ds.Vectors, nil)
	m.buildDur = time.Since(start)
	sb.end(id)
	if err != nil {
		return nil, err
	}
	if len(col.Segments()) != 1 {
		return nil, fmt.Errorf("mono collection has %d segments, want 1", len(col.Segments()))
	}
	var next int64
	col.AssignStorage(func(n int64) int64 { p := next; next += n; return p })
	m.col = col
	return m, nil
}

// modelled replays the collection's recorded queries for one short virtual
// window: the sim_qps / sim_p99_us of a workload that does not itself replay.
func modelled(col *vdb.Collection, queries *vec.Matrix, opts index.SearchOptions, c *runConfig) core.Metrics {
	execs := col.RecordQueries(queries, k, opts)
	return core.Run(execs, col.Traits(), core.RunConfig{
		Threads: 16, Duration: c.sizes.simWindow, Repetitions: 1, Seed: c.seed,
	}).Metrics
}

// checkSearch verifies, outside the timed rounds, that every query returns k
// live ids and that Search and SearchBatch agree; it returns the Search ids.
func checkSearch(v *verdict, col *vdb.Collection, queries *vec.Matrix, opts index.SearchOptions, deleted func(int32) bool) [][]int32 {
	batch := col.SearchBatch(context.Background(), queries, k, opts)
	ids := make([][]int32, queries.Len())
	for qi := range ids {
		ids[qi] = col.Search(queries.Row(qi), k, opts).IDs
		v.check(len(ids[qi]) == k, "query %d: %d ids, want %d", qi, len(ids[qi]), k)
		v.check(slices.Equal(ids[qi], batch[qi].IDs), "query %d: Search and SearchBatch disagree", qi)
		live := true
		for _, id := range ids[qi] {
			if deleted(id) {
				live = false
			}
		}
		v.check(live, "query %d: tombstoned id returned", qi)
	}
	return ids
}

// ---- serve-mono ----------------------------------------------------------

type serveMono struct{ *mono }

func setupServeMono(c *runConfig, sb *tracer, parent int32) (instance, error) {
	m, err := setupMono(c, sb, parent)
	if err != nil {
		return nil, err
	}
	return &serveMono{m}, nil
}

// round is one closed-loop client: it sends its next query only when the
// previous one has returned. One client, not one per core: with two, the
// second core is shared between a client, the collector and whatever else the
// host schedules, and a run measures the scheduler (round throughputs spread
// by 25 % and more) instead of the search path.
func (s *serveMono) round(sb *tracer, parent int32) roundSample {
	per := s.c.sizes.monoOps
	nq := s.ds.Queries.Len()
	r := roundSample{ops: int64(per), latUs: make([]float64, 0, per)}
	start := time.Now()
	for j := 0; j < per; j++ {
		q := s.ds.Queries.Row(j % nq)
		id := sb.begin(parent, "collection.search", "")
		t0 := time.Now()
		res := s.col.Search(q, k, s.opts)
		r.latUs = append(r.latUs, us(time.Since(t0)))
		sb.end(id)
		if len(res.IDs) != k {
			r.failed++
		}
	}
	r.wall = time.Since(start)
	return r
}

func (s *serveMono) verify([]roundSample) verdict {
	var v verdict
	deleted := func(int32) bool { return false }
	if s.c.poison {
		deleted = func(id int32) bool { return id == s.ds.GroundTruth[0][0] }
	}
	ids := checkSearch(&v, s.col, s.ds.Queries, s.opts, deleted)
	v.requireRecall(recallOf(ids, s.ds))
	v.sim = modelled(s.col, s.ds.Queries, s.opts, s.c)
	return v
}

// ---- serve-seg-mixed -----------------------------------------------------

// mixedOp is one operation of the serve-seg-mixed sequence.
type mixedOp struct {
	kind byte // 's' search, 'i' insert, 'd' delete
	arg  int  // query row, pool row, or id to delete
}

type serveSeg struct {
	c        *runConfig
	ds       *dataset.Dataset
	pool     *vec.Matrix // vectors inserted during rounds
	traits   vdb.Traits
	opts     index.SearchOptions
	base     *vdb.Collection // sealed contents only, never mutated
	last     *vdb.Collection // the collection the latest round mutated
	seq      []mixedOp
	preDel   []int32 // ids tombstoned before every round
	genDur   time.Duration
	buildDur time.Duration
}

func (s *serveSeg) build() (*vdb.Collection, error) {
	col, err := vdb.NewCollection("seg", s.ds.Spec.Dim, s.ds.Spec.Metric, s.traits, vdb.IndexIVFFlat, vdb.DefaultBuildParams())
	if err != nil {
		return nil, err
	}
	if err := col.BulkLoad(s.ds.Vectors, nil); err != nil {
		return nil, err
	}
	return col, nil
}

func setupServeSeg(c *runConfig, sb *tracer, parent int32) (instance, error) {
	sz := c.sizes
	s := &serveSeg{c: c, traits: vdb.Milvus(), opts: index.SearchOptions{NProbe: 8}}
	s.traits.SegmentCapacity = sz.segCap
	s.ds, s.genDur = generate(sb, parent, "seg", sz.segN, sz.queries, c.seed)

	// The operation sequence is drawn once from the seed and replayed by
	// every round, so rounds do equal work: 96 % searches, 2 % inserts, 2 %
	// deletes of sealed rows.
	r := rand.New(rand.NewSource(c.seed))
	perm := r.Perm(sz.segN)
	for _, row := range perm[:sz.tombstones] {
		s.preDel = append(s.preDel, int32(row))
	}
	victims := perm[sz.tombstones:]
	inserts := 0
	for i := 0; i < sz.mixedOps; i++ {
		switch x := r.Intn(100); {
		case x < 2:
			s.seq = append(s.seq, mixedOp{'i', sz.growRows + inserts})
			inserts++
		case x < 4:
			s.seq = append(s.seq, mixedOp{'d', victims[0]})
			victims = victims[1:]
		default:
			s.seq = append(s.seq, mixedOp{'s', r.Intn(sz.queries)})
		}
	}
	pool, _ := generate(sb, parent, "seg-inserts", sz.growRows+inserts+1, 1, c.seed+1)
	s.pool = pool.Vectors

	id := sb.begin(parent, "collection.bulk_load", "IVF_FLAT")
	start := time.Now()
	var err error
	s.base, err = s.build()
	s.buildDur = time.Since(start)
	sb.end(id)
	if err != nil {
		return nil, err
	}
	if want := (sz.segN + sz.segCap - 1) / sz.segCap; len(s.base.Segments()) != want {
		return nil, fmt.Errorf("seg collection has %d segments, want %d", len(s.base.Segments()), want)
	}
	return s, nil
}

func (s *serveSeg) round(sb *tracer, parent int32) roundSample {
	// Untimed: a fresh collection with a growing tail and tombstones, so
	// every round starts from the same state.
	pid := sb.begin(parent, "collection.rebuild", "")
	col, err := s.build()
	if err != nil {
		panic(err) // the same build succeeded in set-up
	}
	for row := 0; row < s.c.sizes.growRows; row++ {
		if _, err := col.Insert(s.pool.Row(row), nil); err != nil {
			panic(err)
		}
	}
	for _, id := range s.preDel {
		col.Delete(id)
	}
	sb.end(pid)
	s.last = col

	r := roundSample{latUs: make([]float64, 0, len(s.seq))}
	inserted := make([]int32, 0, 16)
	insertedRow := make([]int, 0, 16)
	start := time.Now()
	for _, op := range s.seq {
		t0 := time.Now()
		switch op.kind {
		case 's':
			id := sb.begin(parent, "collection.search", "")
			res := col.Search(s.ds.Queries.Row(op.arg), k, s.opts)
			sb.end(id)
			if len(res.IDs) != k {
				r.failed++
			}
		case 'i':
			id := sb.begin(parent, "collection.insert", "")
			got, err := col.Insert(s.pool.Row(op.arg), nil)
			sb.end(id)
			if err != nil {
				r.failed++
			}
			inserted = append(inserted, got)
			insertedRow = append(insertedRow, op.arg)
		case 'd':
			id := sb.begin(parent, "collection.delete", "")
			col.Delete(int32(op.arg))
			sb.end(id)
		}
		r.latUs = append(r.latUs, us(time.Since(t0)))
	}
	r.wall = time.Since(start)
	r.ops = int64(len(s.seq))

	// Untimed: an inserted vector must be its own nearest neighbour.
	for i, id := range inserted {
		res := col.Search(s.pool.Row(insertedRow[i]), 1, s.opts)
		r.ops++
		if len(res.IDs) != 1 || res.IDs[0] != id {
			r.failed++
		}
	}
	return r
}

func (s *serveSeg) verify([]roundSample) verdict {
	var v verdict
	ids := checkSearch(&v, s.base, s.ds.Queries, s.opts, func(int32) bool { return false })
	v.requireRecall(recallOf(ids, s.ds))
	// The mutated collection: nothing tombstoned may come back.
	checkSearch(&v, s.last, s.ds.Queries, s.opts, s.last.Deleted)
	v.sim = modelled(s.base, s.ds.Queries, s.opts, s.c)
	return v
}
