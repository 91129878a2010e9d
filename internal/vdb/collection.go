package vdb

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"svdbench/internal/index"
	"svdbench/internal/index/diskann"
	"svdbench/internal/index/flat"
	"svdbench/internal/index/hnsw"
	"svdbench/internal/index/ivf"
	"svdbench/internal/par"
	"svdbench/internal/vec"
)

// Payload is the auxiliary data attached to one vector (the paper's
// "payload" feature of full-fledged vector databases, Sec. II-C).
type Payload map[string]string

// Segment is one sealed shard of a collection: an immutable vector block
// with its own index.
type Segment struct {
	IDs   []int32
	Data  *vec.Matrix
	Index index.Index
}

// Collection is a named vector collection under one engine's traits: sealed
// segments with indexes, a growing tail segment that is brute-force
// searched, tombstoned deletes, and payload storage.
type Collection struct {
	Name   string
	dim    int
	metric vec.Metric
	traits Traits
	kind   IndexKind
	params BuildParams

	segments []*Segment
	// grow is the growing tail: one long-lived brute-force index that
	// Insert appends to and every search scans as the last unit.
	grow *flat.Index

	// dead is the tombstone bitset over assigned ids, ndead its set bits.
	dead     []uint64
	ndead    int
	payloads map[int32]Payload
	nextID   int32

	// scratch holds the search workspaces the collection retains for
	// single queries: slot 0 for a query that brings none, slot h for its
	// fan-out helper h (see runOne). GOMAXPROCS slots at NewCollection.
	scratch []atomic.Pointer[index.SearchScratch]
}

// NewCollection creates an empty collection for the engine's traits.
// The index kind must be supported by the engine.
func NewCollection(name string, dim int, metric vec.Metric, traits Traits, kind IndexKind, params BuildParams) (*Collection, error) {
	if !traits.Supports(kind) {
		return nil, fmt.Errorf("%w: %s does not expose %s", ErrUnsupportedIndex, traits.Name, kind)
	}
	if dim <= 0 {
		return nil, fmt.Errorf("%w: invalid dimension %d", ErrBadParams, dim)
	}
	if !metric.Valid() {
		return nil, fmt.Errorf("%w: unknown metric %v", ErrBadParams, metric)
	}
	return &Collection{
		Name:     name,
		dim:      dim,
		metric:   metric,
		traits:   traits,
		kind:     kind,
		params:   params,
		grow:     flat.New(vec.NewMatrix(0, dim), metric, []int32{}),
		payloads: map[int32]Payload{},
		scratch:  make([]atomic.Pointer[index.SearchScratch], runtime.GOMAXPROCS(0)),
	}, nil
}

// Dim returns the vector dimensionality.
func (c *Collection) Dim() int { return c.dim }

// Metric returns the distance metric.
func (c *Collection) Metric() vec.Metric { return c.metric }

// IndexKind returns the configured index family.
func (c *Collection) IndexKind() IndexKind { return c.kind }

// Traits returns the engine traits the collection runs under.
func (c *Collection) Traits() Traits { return c.traits }

// Len returns the number of live vectors.
func (c *Collection) Len() int {
	n := c.grow.Len()
	for _, s := range c.segments {
		n += len(s.IDs)
	}
	return n - c.ndead
}

// Segments returns the sealed segments.
func (c *Collection) Segments() []*Segment { return c.segments }

// BulkLoad ingests the matrix as the collection's sealed contents: rows are
// split into SegmentCapacity-sized segments (or one monolithic segment) and
// indexed on every core, one segment per claim. Assigned ids are sequential
// from zero. payloads, when non-nil, attaches payloads[i] to row i.
func (c *Collection) BulkLoad(data *vec.Matrix, payloads []Payload) error {
	n := data.Len()
	if n == 0 {
		return fmt.Errorf("%w: bulk load of empty matrix", ErrBadParams)
	}
	if data.Dim != c.dim {
		return fmt.Errorf("%w: bulk load dim %d, want %d", ErrBadParams, data.Dim, c.dim)
	}
	capPer := c.traits.SegmentCapacity
	if capPer <= 0 {
		capPer = n
	}
	nseg := (n + capPer - 1) / capPer
	segs := make([]*Segment, nseg)
	errs := make([]error, nseg)
	par.For(runtime.GOMAXPROCS(0), nseg, func(_, s int) {
		lo, hi := s*capPer, min(n, (s+1)*capPer)
		sub := vec.NewMatrix(hi-lo, c.dim)
		ids := make([]int32, hi-lo)
		for i := lo; i < hi; i++ {
			sub.SetRow(i-lo, data.Row(i))
			ids[i-lo] = int32(i)
		}
		ix, err := c.buildIndex(sub, ids, int64(s))
		if err != nil {
			errs[s] = err
			return
		}
		segs[s] = &Segment{IDs: ids, Data: sub, Index: ix}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	c.segments = segs
	c.nextID = int32(n)
	for i, p := range payloads {
		if p != nil {
			c.payloads[int32(i)] = p
		}
	}
	return nil
}

// buildIndex constructs the configured index over one segment's rows.
func (c *Collection) buildIndex(data *vec.Matrix, ids []int32, segSeed int64) (index.Index, error) {
	seed := c.params.Seed + segSeed
	switch c.kind {
	case IndexIVFFlat:
		return ivf.Build(data, ids, ivf.Config{NList: c.params.NList, Metric: c.metric, Seed: seed})
	case IndexIVFPQ:
		return ivf.Build(data, ids, ivf.Config{NList: c.params.NList, Metric: c.metric, Seed: seed, PQ: true})
	case IndexHNSW:
		return hnsw.Build(data, ids, hnsw.Config{M: c.params.M, EfConstruction: c.params.EfConstruction, Metric: c.metric, Seed: seed})
	case IndexHNSWSQ:
		return hnsw.Build(data, ids, hnsw.Config{M: c.params.M, EfConstruction: c.params.EfConstruction, Metric: c.metric, Seed: seed, ScalarQuantize: true})
	case IndexDiskANN:
		return diskann.Build(data, ids, diskann.Config{R: c.params.R, LBuild: c.params.LBuild, Alpha: c.params.Alpha, Metric: c.metric, Seed: seed})
	default:
		return nil, fmt.Errorf("%w: unknown index kind %q", ErrBadParams, c.kind)
	}
}

// AssignStorage lays storage-based indexes out on a device's pages. It must
// be called once after BulkLoad when the index kind is storage-based.
func (c *Collection) AssignStorage(alloc func(npages int64) int64) {
	for _, s := range c.segments {
		switch ix := s.Index.(type) {
		case *diskann.Index:
			ix.AssignPages(alloc)
		case *ivf.Index:
			ix.AssignPages(alloc)
		}
	}
}

// Insert adds one vector to the growing tail segment and returns its id.
// Growing rows are scanned brute-force by searches until compaction.
func (c *Collection) Insert(v []float32, payload Payload) (int32, error) {
	if len(v) != c.dim {
		return 0, fmt.Errorf("%w: insert dim %d, want %d", ErrBadParams, len(v), c.dim)
	}
	id := c.nextID
	c.nextID++
	c.grow.Append(v, id)
	if payload != nil {
		c.payloads[id] = payload
	}
	return id, nil
}

// Delete tombstones an id; searches stop returning it immediately. Ids the
// collection never assigned are ignored: a tombstone for one would make Len
// under-count and the tombstone bitset grow without bound.
func (c *Collection) Delete(id int32) {
	if id < 0 || id >= c.nextID {
		return
	}
	w := int(id >> 6)
	for len(c.dead) <= w {
		c.dead = append(c.dead, 0)
	}
	if bit := uint64(1) << (id & 63); c.dead[w]&bit == 0 {
		c.dead[w] |= bit
		c.ndead++
	}
	delete(c.payloads, id)
}

// Deleted reports whether an id is tombstoned.
func (c *Collection) Deleted(id int32) bool {
	w := uint(id) >> 6
	return w < uint(len(c.dead)) && c.dead[w]&(1<<(id&63)) != 0
}

// Payload returns the payload of an id (nil when absent).
func (c *Collection) Payload(id int32) Payload { return c.payloads[id] }

// FilterEq builds a search filter matching payload[field] == value,
// honouring tombstones.
func (c *Collection) FilterEq(field, value string) func(int32) bool {
	return func(id int32) bool {
		if c.Deleted(id) {
			return false
		}
		p := c.payloads[id]
		return p != nil && p[field] == value
	}
}

// liveFilter wraps a user filter with tombstone checking.
func (c *Collection) liveFilter(user func(int32) bool) func(int32) bool {
	if c.ndead == 0 {
		return user
	}
	return func(id int32) bool {
		if c.Deleted(id) {
			return false
		}
		return user == nil || user(id)
	}
}

// QueryExec is the recorded execution of one query against this collection:
// the per-segment step sequences the simulator replays, plus the merged
// result ids for recall computation and the summed per-segment work counts.
type QueryExec struct {
	Segments [][]index.Step
	IDs      []int32
	Stats    index.Stats
}

// runBatch is the collection's batch search: index.BatchRun over runOne, so
// each query runs to completion on one worker (query-major) and its result
// is byte-identical to a single Search of that query. BatchRun
// already puts a query on every core, so a batch query does not fan its
// units out (width 1). A query's answer depends on the others only through
// a mutable (LRU) node cache; those caches are per index, and BatchRun runs
// such batches on one worker in query order, so every index still sees the
// queries in order.
func (c *Collection) runBatch(ctx context.Context, queries *vec.Matrix, k int, opts index.SearchOptions, record bool) []QueryExec {
	return index.BatchRun(ctx, queries.Len(), opts, func(qi int, o index.SearchOptions) QueryExec {
		return c.runOne(ctx, queries.Row(qi), k, o, record, 1)
	})
}

func neighborIDs(ns []index.Neighbor) []int32 {
	ids := make([]int32, len(ns))
	for i, n := range ns {
		ids[i] = n.ID
	}
	return ids
}

// runOne runs one query over its units: the sealed segments in order, then
// the brute-forced growing tail when it holds rows. Unless it records, up
// to width workers (never more than the units) search them; the calling
// goroutine is worker 0, and a width of 1 is a plain loop with no
// goroutine. A recording query always runs the loop, each unit writing its
// recorded steps into its own out.Segments entry. Each unit writes its top-k
// into its own slot of scr.Units, and the merge pushes the slots and sums
// their Stats in unit order, so the answer is the serial loop's whatever
// order the units finished in.
// The scratch is opts.Scratch when the caller brings one; otherwise the
// collection lends the one it retains in slot 0 (see borrow).
func (c *Collection) runOne(ctx context.Context, q []float32, k int, opts index.SearchOptions, record bool, width int) QueryExec {
	var out QueryExec
	units := len(c.segments)
	if c.grow.Len() > 0 {
		units++
	}
	if units == 0 {
		return out
	}
	opts.Filter = c.liveFilter(opts.Filter)
	scr := opts.Scratch
	if scr == nil {
		scr = c.borrow(0)
		defer c.scratch[0].Store(scr)
		opts.Scratch = scr
	}
	if record {
		out.Segments = make([][]index.Step, units)
	}
	scr.Units = index.Grow(scr.Units, units)
	if width = min(width, units); width > 1 && !record {
		c.fanOut(ctx, q, k, opts, width)
	} else {
		for u := range units {
			c.searchUnit(ctx, u, q, k, opts, &scr.Units[u], out.Segments)
		}
	}
	scr.Merged.Reset()
	for _, r := range scr.Units {
		for i, id := range r.IDs {
			scr.Merged.PushBounded(index.Neighbor{ID: id, Dist: r.Dists[i]}, k)
		}
		out.Stats.Add(r.Stats)
	}
	scr.Neighbors = scr.Merged.DrainAscending(scr.Neighbors[:0])
	out.IDs = neighborIDs(scr.Neighbors)
	return out
}

// searchUnit searches unit u (sealed segment u, or the growing tail after
// the segments) on opts.Scratch into dst, and records its steps into segs[u]
// when segs is non-nil. A cancelled ctx leaves dst empty.
func (c *Collection) searchUnit(ctx context.Context, u int, q []float32, k int, opts index.SearchOptions, dst *index.Result, segs [][]index.Step) {
	var prof *index.Profile
	if segs != nil {
		prof = new(index.Profile)
		opts.Recorder = prof
	}
	if ctx.Err() != nil {
		dst.IDs, dst.Stats = dst.IDs[:0], index.Stats{}
	} else if u < len(c.segments) {
		c.segments[u].Index.SearchInto(q, k, opts, dst)
	} else {
		c.grow.SearchInto(q, k, opts, dst)
	}
	if segs != nil {
		segs[u] = prof.Steps
	}
}

// fanOut searches the units of opts.Scratch.Units on width workers through
// par.For, the growing tail first: it is brute forced and the largest unit.
// Worker 0 is the caller on opts.Scratch; helper w borrows scratch slot w
// when it claims its first unit, into the caller scratch's Helpers list.
// It records nothing: a recording query runs its units in a loop.
func (c *Collection) fanOut(ctx context.Context, q []float32, k int, opts index.SearchOptions, width int) {
	slots := opts.Scratch.Units
	units, nseg := len(slots), len(c.segments)
	scr := index.Grow(opts.Scratch.Helpers, width)
	scr[0] = opts.Scratch
	par.For(width, units, func(w, j int) {
		if scr[w] == nil {
			scr[w] = c.borrow(w)
		}
		o := opts
		o.Scratch = scr[w]
		u := (j + nseg) % units // j = 0 is the tail when there is one
		c.searchUnit(ctx, u, q, k, o, &slots[u], nil)
	})
	for w := 1; w < min(width, len(c.scratch)); w++ {
		if scr[w] != nil {
			c.scratch[w].Store(scr[w])
		}
	}
	clear(scr)
	opts.Scratch.Helpers = scr
}

// borrow lends the scratch retained in slot w. That is an atomic swap of a
// single pointer: a concurrent query that finds the slot taken, or a helper
// beyond the slots (GOMAXPROCS was raised), works on a fresh scratch, and
// whichever finishes last leaves its scratch behind. One per slot is all a
// closed-loop client needs, and a scratch is not small (a DiskANN one
// carries a PQ table of about 0.1 MiB), so there is no pool.
func (c *Collection) borrow(w int) *index.SearchScratch {
	if w < len(c.scratch) {
		if scr := c.scratch[w].Swap(nil); scr != nil {
			return scr
		}
	}
	return index.NewSearchScratch()
}

// minFanOutWork is the least live rows × dim at which a lone Search fans its
// units out. Below it, a helper that has to be woken costs
// more than it saves. It was measured on BenchmarkSearch's 13 IVF_FLAT
// segments + tail shape (1280 live rows) at GOMAXPROCS 2 on a 2-vCPU Xeon,
// runOne at width 2 against width 1. Back to back, with par's helper
// resident and polling, width 2 wins from 32 dims (41 k) up: 1.2–1.5× below
// 0.25 M, 1.8–2.0× from 0.33 M. With 2 ms between queries, so that the
// helper has parked and must be woken, width 2 runs 0.94× the loop's speed
// at 32 dims, 0.96–0.99× at 96 (0.12 M), 1.00–1.07× at 128 (0.16 M) and
// 1.07–1.13× at 160 (0.2 M). The bound is that break-even; serve-seg-mixed
// is about 3.4 M, the 32-d test collections about 44 k.
const minFanOutWork = 160_000

// width is the fan-out width of a lone query: every core, or 1 when the
// collection holds too little work to share (minFanOutWork).
func (c *Collection) width() int {
	if c.Len()*c.dim < minFanOutWork {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// Search runs one real query (outside the simulation) and returns the merged
// top-k result without capturing execution profiles; RecordQueries captures
// them.
func (c *Collection) Search(q []float32, k int, opts index.SearchOptions) QueryExec {
	return c.runOne(context.Background(), q, k, opts, false, c.width())
}

// SearchBatch runs every query row through the batch core without
// recording, up to GOMAXPROCS queries concurrently. Each query's
// result is byte-identical to Search on the same options; ctx cancellation
// stops starting new queries (unstarted queries return zero QueryExecs).
func (c *Collection) SearchBatch(ctx context.Context, queries *vec.Matrix, k int, opts index.SearchOptions) []QueryExec {
	return c.runBatch(ctx, queries, k, opts, false)
}

// RecordQueries captures the execution of every query row: the workload the
// simulation replays. It is the batch core of SearchBatch with recording
// enabled. Queries are processed in parallel (host goroutines) since
// recording is preprocessing — except when the options select a mutable
// node cache (LRU), whose state evolves across queries: those run
// sequentially in query order (index.BatchRun serialises them) so the
// captured executions do not depend on goroutine interleaving.
func (c *Collection) RecordQueries(queries *vec.Matrix, k int, opts index.SearchOptions) []QueryExec {
	return c.runBatch(context.Background(), queries, k, opts, true)
}
