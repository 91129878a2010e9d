package main

import (
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"svdbench/internal/core"
	"svdbench/internal/dataset"
	"svdbench/internal/index"
	"svdbench/internal/index/diskann"
	"svdbench/internal/index/flat"
	"svdbench/internal/index/pq"
	"svdbench/internal/index/spann"
	"svdbench/internal/sim"
	"svdbench/internal/storage/ssd"
	"svdbench/internal/vdb"
	"svdbench/internal/vec"
)

// Nothing inside the program is instrumented yet, so a layer below the call
// boundary is measured by a probe: the workload's own inputs replayed
// directly against that layer, on one goroutine, inside a "probe" span.

// timeCalls runs f calls times and returns each call's latency in µs and the
// heap allocations and bytes per call.
func timeCalls(calls int, f func(i int)) (latUs []float64, allocs, bytes float64) {
	latUs = make([]float64, calls)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		t0 := time.Now()
		f(i)
		latUs[i] = us(time.Since(t0))
	}
	runtime.ReadMemStats(&after)
	n := float64(calls)
	return latUs, float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

// bestNs times reps calls of f in each of rounds equal-work rounds and returns
// the best round's nanoseconds per call.
func bestNs(rounds, reps int, f func()) float64 {
	best := math.Inf(1)
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		if ns := float64(time.Since(t0)) / float64(reps); ns < best {
			best = ns
		}
	}
	return best
}

var sink float32 // defeats dead-code elimination of kernel probes

// probeCommon measures the rows that do not depend on the workload: the
// batch distance kernels at the paper's Cohere dimensionality.
func probeCommon(sb *tracer, parent int32, rounds int, out map[string]float64) {
	id := sb.begin(parent, "probe.vec", "")
	defer sb.end(id)
	const rows, dim = 256, 768
	r := rand.New(rand.NewSource(1))
	q := make([]float32, dim)
	packed := make([]float32, rows*dim)
	for i := range q {
		q[i] = r.Float32()
	}
	for i := range packed {
		packed[i] = r.Float32()
	}
	dists := make([]float32, rows)
	out["vec.dot_batch_768_ns"] = bestNs(rounds, 200, func() { vec.DotBatch(q, packed, dists); sink += dists[0] })
	out["vec.l2sq_batch_768_ns"] = bestNs(rounds, 200, func() { vec.L2SqBatch(q, packed, dists); sink += dists[0] })
	out["vec.cosine_batch_768_ns"] = bestNs(rounds, 100, func() { vec.DistanceBatch(vec.Cosine, q, packed, dists); sink += dists[0] })
	out["vec.cosine_over_dot_768"] = out["vec.cosine_batch_768_ns"] / out["vec.dot_batch_768_ns"]
}

// searchProbe is what probing one index's search measured.
type searchProbe struct {
	p50us  float64
	allocs float64
	stats  index.Stats // summed over calls
	calls  int
}

func (p searchProbe) per(n int) float64 { return float64(n) / float64(p.calls) }

// probeIndex runs calls searches directly against one index, cycling through
// the queries with one reused scratch and result. Indexes without SearchInto
// (IVF) go through Search.
func probeIndex(sb *tracer, parent int32, ix index.Index, queries *vec.Matrix, opts index.SearchOptions, calls int) searchProbe {
	id := sb.begin(parent, "probe.index", ix.Name())
	defer sb.end(id)
	opts.Scratch = index.NewSearchScratch()
	var dst index.Result
	search := func(i int) { dst = ix.Search(queries.Row(i%queries.Len()), k, opts) }
	if into, ok := ix.(index.SearcherInto); ok {
		search = func(i int) { into.SearchInto(queries.Row(i%queries.Len()), k, opts, &dst) }
	}
	search(0) // grow the scratch before counting allocations
	p := searchProbe{calls: calls}
	lat, allocs, _ := timeCalls(calls, func(i int) {
		search(i)
		p.stats.Add(dst.Stats)
	})
	p.p50us, p.allocs = percentile(lat, 0.5), allocs
	return p
}

// probeDiskANN fills the rows of the mono collection's DiskANN index in both
// layouts, the PQ table row, and the set-up rows.
func (m *mono) probeDiskANN(sb *tracer, parent int32, out map[string]float64) {
	ix := m.col.Segments()[0].Index.(*diskann.Index)
	calls := m.c.sizes.probeCalls
	raw := float64(m.ds.Vectors.Len() * m.ds.Spec.Dim * 4)

	p := probeIndex(sb, parent, ix, m.ds.Queries, m.opts, calls)
	out["index.diskann.search_into_us_p50"] = p.p50us
	out["index.diskann.allocs_per_search"] = p.allocs
	out["index.diskann.hops_per_query"] = p.per(p.stats.Hops)
	out["index.diskann.pages_per_query"] = p.per(p.stats.PagesRead)
	out["index.diskann.dist_comps_per_query"] = p.per(p.stats.DistComps)
	out["index.diskann.pq_comps_per_query"] = p.per(p.stats.PQComps)
	out["index.diskann.memory_mib"] = float64(ix.MemoryBytes()) / (1 << 20)
	out["index.diskann.storage_amp"] = float64(ix.StorageBytes()) / raw

	pp := probeIndex(sb, parent, ix, m.ds.Queries, m.opts.With(index.WithLayout(index.LayoutPage)), calls)
	out["index.diskann_page.search_into_us_p50"] = pp.p50us
	out["index.diskann_page.allocs_per_search"] = pp.allocs
	out["index.diskann_page.pages_per_query"] = pp.per(pp.stats.PagesRead)
	out["index.diskann_page.storage_amp"] = float64(ix.PageGroups()*ix.PagesPerGroup()*4096) / raw

	// The index keeps its quantizer private; an equal one (same data, same
	// sub-quantizer count) stands in for the per-query table build.
	id := sb.begin(parent, "probe.pq", "")
	if quant, err := pq.Train(m.ds.Vectors, m.ds.Spec.Dim/8, m.c.seed); err == nil {
		table := quant.BuildTable(m.ds.Queries.Row(0))
		qi := 0
		out["pq.build_table_768_ns"] = bestNs(m.c.sizes.probeRounds, 50, func() {
			table = quant.BuildTableInto(m.ds.Queries.Row(qi%m.ds.Queries.Len()), table)
			qi++
		})
	}
	sb.end(id)

	out["index.diskann.build_s"] = m.buildDur.Seconds()
	out["dataset.generate_s"] = m.genDur.Seconds()
}

// probeCollection fills the collection.* rows for one collection: per-call
// search cost and allocations through the public API, the batch and record
// paths, a save/load round trip, and the ratio of a collection search to the
// bare index searches it is made of.
func probeCollection(sb *tracer, parent int32, col *vdb.Collection, ds *dataset.Dataset, opts index.SearchOptions, c *runConfig, out map[string]float64) error {
	id := sb.begin(parent, "probe.collection", "")
	defer sb.end(id)
	queries := ds.Queries
	lat, allocs, bytes := timeCalls(c.sizes.probeCalls, func(i int) {
		col.Search(queries.Row(i%queries.Len()), k, opts)
	})
	out["collection.search_us_p50"] = percentile(lat, 0.50)
	out["collection.search_us_p99"] = percentile(lat, 0.99)
	out["collection.allocs_per_search"] = allocs
	out["collection.bytes_per_search"] = bytes

	var bare float64
	for _, seg := range col.Segments() {
		bare += probeIndex(sb, id, seg.Index, queries, opts, c.sizes.probeCalls/4).p50us
	}
	out["collection.overhead_ratio"] = out["collection.search_us_p50"] / bare

	nq := float64(queries.Len())
	out["collection.search_batch_us_per_query"] = bestNs(c.sizes.probeRounds, 1, func() {
		col.SearchBatch(context.Background(), queries, k, opts)
	}) / 1e3 / nq
	out["collection.record_us_per_query"] = bestNs(c.sizes.probeRounds, 1, func() {
		col.RecordQueries(queries, k, opts)
	}) / 1e3 / nq

	dir, err := os.MkdirTemp(c.outDir, "col-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "probe.col")
	t0 := time.Now()
	if err := col.Save(path); err != nil {
		return err
	}
	out["collection.save_ms"] = float64(time.Since(t0)) / 1e6
	t0 = time.Now()
	if _, err := vdb.LoadCollection(path, ds.Vectors, col.Traits(), vdb.DefaultBuildParams()); err != nil {
		return err
	}
	out["collection.load_ms"] = float64(time.Since(t0)) / 1e6
	return nil
}

func (s *serveMono) probe(sb *tracer, parent int32, out map[string]float64) {
	s.probeDiskANN(sb, parent, out)
	if err := probeCollection(sb, parent, s.col, s.ds, s.opts, s.c, out); err != nil {
		panic(err) // a temp file under the output directory could not be written
	}

	// SPANN has no engine in the paper's setups; the bare index is probed on
	// the same data so the second storage-based family has rows too.
	id := sb.begin(parent, "probe.spann", "")
	t0 := time.Now()
	sp, err := spann.Build(s.ds.Vectors, nil, spann.Config{Metric: s.ds.Spec.Metric, Seed: s.c.seed})
	if err == nil {
		out["index.spann.build_s"] = time.Since(t0).Seconds()
		var next int64
		sp.AssignPages(func(n int64) int64 { p := next; next += n; return p })
		p := probeIndex(sb, id, sp, s.ds.Queries, index.SearchOptions{NProbe: 4, LookAhead: 2}, s.c.sizes.probeCalls)
		out["index.spann.search_into_us_p50"] = p.p50us
		out["index.spann.pages_per_query"] = p.per(p.stats.PagesRead)
		if p.stats.PrefetchPages > 0 {
			out["index.prefetch_used_frac"] = float64(p.stats.PrefetchUsed) / float64(p.stats.PrefetchPages)
		}
	}
	sb.end(id)
}

func (s *serveSeg) probe(sb *tracer, parent int32, out map[string]float64) {
	if err := probeCollection(sb, parent, s.base, s.ds, s.opts, s.c, out); err != nil {
		panic(err)
	}
	calls := s.c.sizes.probeCalls
	p := probeIndex(sb, parent, s.base.Segments()[0].Index, s.ds.Queries, s.opts, calls)
	out["index.ivf.search_us_p50"] = p.p50us
	out["index.ivf.allocs_per_search"] = p.allocs
	out["index.ivf.dist_comps_per_query"] = p.per(p.stats.DistComps)
	out["index.ivf.build_s"] = s.buildDur.Seconds()
	out["dataset.generate_s"] = s.genDur.Seconds()

	// The growing tail is a brute-force scan over the inserted rows.
	grow := vec.NewMatrix(0, s.ds.Spec.Dim)
	for row := 0; row < s.c.sizes.growRows; row++ {
		grow.AppendRow(s.pool.Row(row))
	}
	tail := flat.New(grow, s.ds.Spec.Metric, nil)
	out["index.flat.search_into_us_p50"] = probeIndex(sb, parent, tail, s.ds.Queries, index.SearchOptions{}, calls).p50us

	// Writes: inserts into a scratch collection, then deletes of its rows.
	id := sb.begin(parent, "probe.writes", "")
	col, err := vdb.NewCollection("writes", s.ds.Spec.Dim, s.ds.Spec.Metric, s.traits, vdb.IndexIVFFlat, vdb.DefaultBuildParams())
	if err == nil {
		n := s.pool.Len()
		t0 := time.Now()
		for row := 0; row < n; row++ {
			_, _ = col.Insert(s.pool.Row(row), nil) // dimension is the collection's own
		}
		out["collection.insert_ns"] = float64(time.Since(t0)) / float64(n)
		t0 = time.Now()
		for row := 0; row < n; row++ {
			col.Delete(int32(row))
		}
		out["collection.delete_ns"] = float64(time.Since(t0)) / float64(n)
	}
	sb.end(id)
}

// probeReplay fills the host-side rows of the replay layers: the cost of the
// instance's own core.Run configuration per simulated read and query, and
// bare sim / ssd streams.
func probeReplay(sb *tracer, parent int32, rounds int, execs []vdb.QueryExec, traits vdb.Traits, cfg core.RunConfig, out map[string]float64) {
	id := sb.begin(parent, "probe.replay", "")
	var m core.Metrics
	lat, allocs, bytes := timeCalls(rounds, func(int) { m = core.Run(execs, traits, cfg).Metrics })
	sb.end(id)
	bestUs := slices.Min(lat)
	if m.ReadOps > 0 {
		out["replay.host_ns_per_read"] = bestUs * 1e3 / float64(m.ReadOps)
	}
	if m.Served > 0 {
		out["replay.allocs_per_simq"] = allocs / float64(m.Served)
		out["replay.bytes_per_simq"] = bytes / float64(m.Served)
	}

	id = sb.begin(parent, "probe.sim", "")
	const procs, sleeps = 64, 500
	out["sim.ns_per_event"] = bestNs(rounds, 1, func() {
		kern := sim.NewKernel()
		for p := 0; p < procs; p++ {
			kern.Spawn("sleeper", func(e *sim.Env) {
				for i := 0; i < sleeps; i++ {
					e.Sleep(time.Microsecond)
				}
			})
		}
		kern.RunAll()
	}) / (procs * sleeps)
	sb.end(id)

	id = sb.begin(parent, "probe.ssd", "")
	window := cfg.Duration
	var reads int64
	ns := bestNs(rounds, 1, func() { reads = beamStream(window, func(d *ssd.Device) pageReader { return d }) })
	out["ssd.device.host_ns_per_read"] = ns / float64(reads)
	ns = bestNs(rounds, 1, func() { reads = beamStream(window, func(d *ssd.Device) pageReader { return ssd.NewBatcher(d) }) })
	out["ssd.batcher.host_ns_per_read"] = ns / float64(reads)
	out["ssd.calib_err_frac"] = calibrationError(window)
	sb.end(id)
}

// The bare ssd streams keep streamBeams beams of streamWidth 4 KiB random
// reads outstanding (queue depth 64), the shape DiskANN's beam search gives
// the device.
const (
	streamBeams = 16
	streamWidth = 4
)

// pageReader is the read path under test: ssd.Device forks one simulated
// process per page of a beam, ssd.Batcher computes completions analytically.
type pageReader interface {
	ReadPages(e *sim.Env, pages []int64)
}

// beamStream drives the stream through the reader made by open for a virtual
// window and returns the reads completed.
func beamStream(window time.Duration, open func(*ssd.Device) pageReader) int64 {
	kern := sim.NewKernel()
	rd := open(ssd.New(kern, sim.NewCPU(kern, 20), ssd.DefaultConfig()))
	deadline := sim.Time(window)
	var reads int64
	for p := 0; p < streamBeams; p++ {
		p := p
		kern.Spawn("beam", func(e *sim.Env) {
			pages := make([]int64, streamWidth)
			next := int64(p) * 7919
			for e.Now() < deadline {
				for i := range pages {
					next = (next*31 + 17) % (1 << 20)
					pages[i] = next
				}
				rd.ReadPages(e, pages)
				reads += streamWidth
			}
		})
	}
	kern.RunAll()
	return reads
}

// calibrationError replays the paper's three fio points (Table I) against the
// simulated device and returns the largest relative error.
func calibrationError(window time.Duration) float64 {
	points := []struct {
		cores, jobs, bytes int
		paper              float64 // bytes per second
	}{
		{1, 256, 4096, 324.3e3 * 4096},
		{4, 64, 4096, 1.3e6 * 4096},
		{20, 32, 128 << 10, 7.2 * (1 << 30)},
	}
	worst := 0.0
	for _, pt := range points {
		kern := sim.NewKernel()
		dev := ssd.New(kern, sim.NewCPU(kern, pt.cores), ssd.DefaultConfig())
		deadline := sim.Time(window)
		var ops int64
		for j := 0; j < pt.jobs; j++ {
			kern.Spawn("fio", func(e *sim.Env) {
				for e.Now() < deadline {
					dev.Read(e, 0, pt.bytes)
					ops++
				}
			})
		}
		kern.RunAll()
		got := float64(ops) * float64(pt.bytes) / window.Seconds()
		worst = math.Max(worst, math.Abs(got-pt.paper)/pt.paper)
	}
	return worst
}

func (s *replaySync) probe(sb *tracer, parent int32, out map[string]float64) {
	s.probeDiskANN(sb, parent, out)
	probeReplay(sb, parent, s.c.sizes.probeRounds, s.execs, s.col.Traits(), s.cfg, out)
}

func (s *cellPipelined) probe(sb *tracer, parent int32, out map[string]float64) {
	s.probeDiskANN(sb, parent, out)
	probeReplay(sb, parent, s.c.sizes.probeRounds, s.execs, s.col.Traits(), s.cfg, out)
	out["collection.record_us_per_query"] = bestNs(s.c.sizes.probeRounds, 1, func() {
		s.col.RecordQueries(s.ds.Queries, k, s.popts)
	}) / 1e3 / float64(s.ds.Queries.Len())

	// Counts at the record boundary: how much of the demand the node cache
	// absorbed, and how much of the speculation was used.
	var st index.Stats
	for _, e := range s.execs {
		st.Add(e.Stats)
	}
	if demand := st.PagesRead + st.CachePages; demand > 0 {
		out["nodecache.hit_rate"] = float64(st.CachePages) / float64(demand)
	}
	if st.PrefetchPages > 0 {
		out["index.prefetch_used_frac"] = float64(st.PrefetchUsed) / float64(st.PrefetchPages)
	}
}

func (g *grid) probe(sb *tracer, parent int32, out map[string]float64) {
	best := g.iters[0]
	for _, it := range g.iters {
		if it.stack+it.cells < best.stack+best.cells {
			best = it
		}
	}
	out["core.build_s"] = best.build.Seconds()
	out["core.tune_record_s"] = (best.stack - best.build).Seconds()
	out["core.cells_s"] = best.cells.Seconds()
	out["core.cells_simq_per_s"] = float64(best.served) / best.cells.Seconds()
	out["dataset.generate_s"] = g.genDur.Seconds()

	// The monolithic HNSW stack (Qdrant's) of the resident bench: its build
	// time and its bare search.
	st, err := g.bench.Stack(gridDataset, vdb.Setup{Engine: vdb.Qdrant(), Index: vdb.IndexHNSW})
	if err != nil {
		return
	}
	out["index.hnsw.build_s"] = st.BuildTime.Seconds()
	p := probeIndex(sb, parent, st.Col.Segments()[0].Index, st.Dataset.Queries, st.Opts, g.c.sizes.probeCalls)
	out["index.hnsw.search_into_us_p50"] = p.p50us
}
