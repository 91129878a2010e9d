package vdb

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"svdbench/internal/dataset"
	"svdbench/internal/index"
	"svdbench/internal/sim"
	"svdbench/internal/storage/ssd"
	"svdbench/internal/trace"
	"svdbench/internal/vec"
)

func testDataset(t testing.TB, n int) *dataset.Dataset {
	t.Helper()
	return dataset.Generate(dataset.Spec{
		Name: fmt.Sprintf("vdb-test-%d", n), N: n, Dim: 32, NumQueries: 20,
		Clusters: 8, Seed: 21, Metric: vec.Cosine, GroundK: 10,
	})
}

func TestTraitsSupports(t *testing.T) {
	if !Milvus().Supports(IndexDiskANN) {
		t.Error("milvus must support DiskANN")
	}
	if Qdrant().Supports(IndexDiskANN) {
		t.Error("qdrant must not support DiskANN (Sec. III-C)")
	}
	if !LanceDB().Supports(IndexIVFPQ) || LanceDB().Supports(IndexHNSW) {
		t.Error("lancedb supports only quantised indexes")
	}
}

func TestEngineByName(t *testing.T) {
	for _, n := range []string{"milvus", "qdrant", "weaviate", "lancedb"} {
		tr, err := EngineByName(n)
		if err != nil || tr.Name != n {
			t.Errorf("EngineByName(%s) = %+v, %v", n, tr.Name, err)
		}
	}
	if _, err := EngineByName("oracle"); err == nil {
		t.Error("unknown engine accepted")
	}
}

func TestPaperSetups(t *testing.T) {
	setups := PaperSetups()
	if len(setups) != 7 {
		t.Fatalf("got %d setups, want the paper's 7", len(setups))
	}
	storage := 0
	for _, s := range setups {
		if !s.Engine.Supports(s.Index) {
			t.Errorf("setup %s unsupported by its engine", s.Label())
		}
		if s.Index == IndexDiskANN || s.Index == IndexIVFPQ {
			storage++
		}
	}
	if storage != 2 {
		t.Errorf("%d storage-based setups, want 2 (Milvus-DiskANN, LanceDB-IVF)", storage)
	}
}

func TestUnsupportedIndexRejected(t *testing.T) {
	_, err := NewCollection("c", 32, vec.Cosine, Qdrant(), IndexDiskANN, DefaultBuildParams())
	if !errors.Is(err, ErrUnsupportedIndex) {
		t.Errorf("err = %v, want ErrUnsupportedIndex", err)
	}
}

func TestBulkLoadSegmentsUnderMilvus(t *testing.T) {
	ds := testDataset(t, 1000)
	tr := Milvus()
	tr.SegmentCapacity = 256
	col, err := NewCollection("c", 32, ds.Spec.Metric, tr, IndexHNSW, DefaultBuildParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := col.BulkLoad(ds.Vectors, nil); err != nil {
		t.Fatal(err)
	}
	if got := len(col.Segments()); got != 4 {
		t.Errorf("segments = %d, want 4 (1000/256)", got)
	}
	if col.Len() != 1000 {
		t.Errorf("len = %d", col.Len())
	}
}

func TestMonolithicUnderQdrant(t *testing.T) {
	ds := testDataset(t, 600)
	col, _ := NewCollection("c", 32, ds.Spec.Metric, Qdrant(), IndexHNSW, DefaultBuildParams())
	if err := col.BulkLoad(ds.Vectors, nil); err != nil {
		t.Fatal(err)
	}
	if len(col.Segments()) != 1 {
		t.Errorf("segments = %d, want 1 (monolithic)", len(col.Segments()))
	}
}

func TestSegmentedSearchRecall(t *testing.T) {
	ds := testDataset(t, 1000)
	tr := Milvus()
	tr.SegmentCapacity = 250
	col, _ := NewCollection("c", 32, ds.Spec.Metric, tr, IndexHNSW, DefaultBuildParams())
	if err := col.BulkLoad(ds.Vectors, nil); err != nil {
		t.Fatal(err)
	}
	results := make([][]int32, ds.Queries.Len())
	for qi := range results {
		exec := col.Search(ds.Queries.Row(qi), 10, index.SearchOptions{EfSearch: 64})
		results[qi] = exec.IDs
	}
	if r := dataset.MeanRecallAtK(results, ds.GroundTruth, 10); r < 0.9 {
		t.Errorf("segmented recall = %v, want ≥0.9 (merge must preserve quality)", r)
	}
}

func TestRecordQueriesShape(t *testing.T) {
	ds := testDataset(t, 600)
	tr := Milvus()
	tr.SegmentCapacity = 200
	col, _ := NewCollection("c", 32, ds.Spec.Metric, tr, IndexDiskANN, DefaultBuildParams())
	if err := col.BulkLoad(ds.Vectors, nil); err != nil {
		t.Fatal(err)
	}
	var next int64
	col.AssignStorage(func(n int64) int64 { p := next; next += n; return p })
	execs := col.RecordQueries(ds.Queries, 10, index.SearchOptions{SearchList: 10, BeamWidth: 4})
	if len(execs) != ds.Queries.Len() {
		t.Fatalf("recorded %d execs", len(execs))
	}
	for qi, e := range execs {
		if len(e.Segments) != 3 {
			t.Fatalf("query %d: %d segment profiles, want 3", qi, len(e.Segments))
		}
		pages := 0
		for _, steps := range e.Segments {
			for _, s := range steps {
				pages += len(s.Pages)
			}
		}
		if pages == 0 {
			t.Fatalf("query %d recorded no I/O for DiskANN", qi)
		}
	}
}

func TestInsertDeleteAndTombstones(t *testing.T) {
	ds := testDataset(t, 400)
	col, _ := NewCollection("c", 32, ds.Spec.Metric, Qdrant(), IndexHNSW, DefaultBuildParams())
	if err := col.BulkLoad(ds.Vectors, nil); err != nil {
		t.Fatal(err)
	}
	// Insert a vector identical to query 0: it must become the top hit.
	q := ds.Queries.Row(0)
	id, err := col.Insert(q, Payload{"kind": "fresh"})
	if err != nil {
		t.Fatal(err)
	}
	exec := col.Search(q, 5, index.SearchOptions{EfSearch: 50})
	if len(exec.IDs) == 0 || exec.IDs[0] != id {
		t.Fatalf("fresh insert not top hit: %v (want %d first)", exec.IDs, id)
	}
	// Delete it: it must vanish.
	col.Delete(id)
	exec = col.Search(q, 5, index.SearchOptions{EfSearch: 50})
	for _, got := range exec.IDs {
		if got == id {
			t.Fatal("tombstoned id still returned")
		}
	}
	if !col.Deleted(id) || col.Payload(id) != nil {
		t.Error("tombstone bookkeeping wrong")
	}
}

func TestPayloadFilteredSearch(t *testing.T) {
	ds := testDataset(t, 400)
	payloads := make([]Payload, 400)
	for i := range payloads {
		lang := "en"
		if i%4 == 0 {
			lang = "nl"
		}
		payloads[i] = Payload{"lang": lang}
	}
	col, _ := NewCollection("c", 32, ds.Spec.Metric, Qdrant(), IndexHNSW, DefaultBuildParams())
	if err := col.BulkLoad(ds.Vectors, payloads); err != nil {
		t.Fatal(err)
	}
	exec := col.Search(ds.Queries.Row(0), 10, index.SearchOptions{
		EfSearch: 100,
		Filter:   col.FilterEq("lang", "nl"),
	})
	if len(exec.IDs) == 0 {
		t.Fatal("filtered search found nothing")
	}
	for _, id := range exec.IDs {
		if id%4 != 0 {
			t.Fatalf("filter leaked id %d", id)
		}
	}
}

func TestBulkLoadErrors(t *testing.T) {
	col, _ := NewCollection("c", 32, vec.Cosine, Qdrant(), IndexHNSW, DefaultBuildParams())
	if err := col.BulkLoad(vec.NewMatrix(0, 32), nil); err == nil {
		t.Error("empty load accepted")
	}
	if err := col.BulkLoad(vec.NewMatrix(10, 16), nil); err == nil {
		t.Error("dim mismatch accepted")
	}
	if _, err := col.Insert(make([]float32, 7), nil); err == nil {
		t.Error("bad insert dim accepted")
	}
}

// --- Engine simulation tests ---

type engineHarness struct {
	k   *sim.Kernel
	cpu *sim.CPU
	dev *ssd.Device
	eng *Engine
}

// testCost prices one heap operation at 1 ns and all other work, node-cache
// hits included, at nothing, so a synthetic step's burst is its heap count
// in nanoseconds: the engines replaying synthetic steps price them with it.
var testCost = index.CostModel{HeapOpPs: 1000}

// burn is the work of a synthetic step whose burst under testCost is d.
func burn(d time.Duration) index.Work { return index.Work{Heap: int32(d)} }

func newEngineHarness(tr Traits) *engineHarness {
	k := sim.NewKernel()
	cpu := sim.NewCPU(k, 20)
	dev := ssd.New(k, cpu, ssd.DefaultConfig())
	eng := NewEngine(k, cpu, dev, tr)
	eng.cost = testCost
	return &engineHarness{k: k, cpu: cpu, dev: dev, eng: eng}
}

// run drains the harness's kernel, checks the engine's drain invariants and
// returns the final clock.
func (h *engineHarness) run(t *testing.T) sim.Time {
	t.Helper()
	end := h.k.RunAll()
	checkEngineDrained(t, h.eng)
	return end
}

// harnessClient is a client of a harness's engine: a timer that runs
// operations back to back while more(i) holds, starting the i'th with
// start(op, i) and reporting each finished one to done with its latency.
type harnessClient struct {
	k     *sim.Kernel
	op    *Op
	more  func(i int) bool
	start func(o *Op, i int) bool
	done  func(o *Op, lat sim.Duration)
	i     int
	began sim.Time
	busy  bool
}

// client starts a harness client after delay.
func (h *engineHarness) client(delay sim.Duration, more func(i int) bool, start func(o *Op, i int) bool, done func(o *Op, lat sim.Duration)) {
	c := &harnessClient{k: h.k, more: more, start: start, done: done}
	t := sim.NewTimer(c)
	c.op = h.eng.NewOp(t)
	h.k.WakeAt(t, h.k.Now().Add(delay))
}

// query starts a client running one query after delay; done receives its
// error and latency.
func (h *engineHarness) query(delay sim.Duration, qe *QueryExec, done func(err error, lat sim.Duration)) {
	h.client(delay, func(i int) bool { return i == 0 },
		func(o *Op, _ int) bool { return o.Query(qe) },
		func(o *Op, lat sim.Duration) {
			if done != nil {
				done(o.Err(), lat)
			}
		})
}

func (c *harnessClient) Wake() {
	if c.busy {
		if !c.op.Resume() {
			return
		}
		c.finish()
	}
	for c.more(c.i) {
		c.began = c.k.Now()
		if c.busy = !c.start(c.op, c.i); c.busy {
			return
		}
		c.finish()
	}
}

func (c *harnessClient) finish() {
	c.done(c.op, c.k.Now().Sub(c.began))
	c.i++
}

func cpuOnlyExec(d time.Duration) *QueryExec {
	return &QueryExec{Segments: [][]index.Step{{{Work: burn(d)}}}}
}

func TestEngineRunQueryBasicTiming(t *testing.T) {
	tr := Qdrant()
	h := newEngineHarness(tr)
	var elapsed sim.Duration
	h.query(0, cpuOnlyExec(time.Millisecond), func(err error, lat sim.Duration) {
		if err != nil {
			t.Errorf("query failed: %v", err)
		}
		elapsed = lat
	})
	h.run(t)
	want := tr.RPCOverhead + tr.IdleWake + tr.PerQueryCPU + time.Millisecond
	if elapsed != want {
		t.Errorf("latency = %v, want %v", elapsed, want)
	}
	if h.eng.Served() != 1 {
		t.Errorf("served = %d", h.eng.Served())
	}
}

func TestIdleWakePaidOnlyWhenIdle(t *testing.T) {
	tr := Qdrant()
	h := newEngineHarness(tr)
	lats := make([]sim.Duration, 2)
	for i := 0; i < 2; i++ {
		i := i
		// The second query arrives while the first is in flight.
		h.query(sim.Duration(i)*50*time.Microsecond, cpuOnlyExec(time.Millisecond), func(_ error, lat sim.Duration) {
			lats[i] = lat
		})
	}
	h.run(t)
	if lats[1] >= lats[0] {
		t.Errorf("busy-arrival latency %v not below idle-arrival %v", lats[1], lats[0])
	}
	if lats[0]-lats[1] != tr.IdleWake {
		t.Errorf("difference %v, want IdleWake %v", lats[0]-lats[1], tr.IdleWake)
	}
}

func TestIntraQueryParallelFansOut(t *testing.T) {
	serial := Qdrant() // no fan-out
	par := Milvus()    // fan-out
	mkExec := func() *QueryExec {
		segs := make([][]index.Step, 4)
		for i := range segs {
			segs[i] = []index.Step{{Work: burn(time.Millisecond)}}
		}
		return &QueryExec{Segments: segs}
	}
	run := func(tr Traits) sim.Duration {
		h := newEngineHarness(tr)
		var elapsed sim.Duration
		h.query(0, mkExec(), func(_ error, lat sim.Duration) { elapsed = lat })
		h.run(t)
		return elapsed
	}
	ts := run(serial)
	tp := run(par)
	// Serial pays 4 ms of segment work; parallel pays ~1 ms.
	if tp >= ts-2*time.Millisecond {
		t.Errorf("parallel %v not clearly below serial %v", tp, ts)
	}
}

func TestMaxReadConcurrentCapsFanOut(t *testing.T) {
	tr := Milvus()
	tr.MaxReadConcurrent = 1
	h := newEngineHarness(tr)
	segs := make([][]index.Step, 4)
	for i := range segs {
		segs[i] = []index.Step{{Work: burn(time.Millisecond)}}
	}
	var elapsed sim.Duration
	h.query(0, &QueryExec{Segments: segs}, func(_ error, lat sim.Duration) { elapsed = lat })
	h.run(t)
	if elapsed < 4*time.Millisecond {
		t.Errorf("capped fan-out finished in %v, want ≥4ms (serialised)", elapsed)
	}
}

func TestOutOfMemoryFailure(t *testing.T) {
	tr := LanceDB()
	tr.MemPerQuery = 1 << 30
	tr.MemBudget = 2 << 30 // only two queries fit
	h := newEngineHarness(tr)
	var okCount, oomCount int
	for i := 0; i < 5; i++ {
		h.query(0, cpuOnlyExec(10*time.Millisecond), func(err error, _ sim.Duration) {
			switch {
			case err == nil:
				okCount++
			case errors.Is(err, ErrOutOfMemory):
				oomCount++
			default:
				t.Errorf("unexpected error %v", err)
			}
		})
	}
	h.run(t)
	if okCount != 2 || oomCount != 3 {
		t.Errorf("ok=%d oom=%d, want 2/3", okCount, oomCount)
	}
	if h.eng.oomFailed != 3 {
		t.Errorf("oomFailed = %d", h.eng.oomFailed)
	}
}

func TestGlobalLockSerializes(t *testing.T) {
	run := func(tr Traits) int {
		h := newEngineHarness(tr)
		deadline := sim.Time(40 * time.Millisecond)
		done := 0
		for i := 0; i < 8; i++ {
			h.client(0, func(int) bool { return h.k.Now() < deadline },
				func(o *Op, _ int) bool { return o.Query(cpuOnlyExec(0)) },
				func(o *Op, _ sim.Duration) {
					if o.Err() == nil {
						done++
					}
				})
		}
		h.run(t)
		return done
	}
	locked := LanceDB() // GlobalLockFraction 0.6 of 2.5 ms
	free := LanceDB()
	free.GlobalLockFraction = 0
	nLocked, nFree := run(locked), run(free)
	// With 8 threads on 20 cores the unlocked engine is embarrassingly
	// parallel; the locked one is capped at ~1/1.5ms.
	if nLocked*2 >= nFree {
		t.Errorf("global lock not limiting: locked=%d free=%d", nLocked, nFree)
	}
}

func TestStorageQueryIssuesIO(t *testing.T) {
	tr := Milvus()
	h := newEngineHarness(tr)
	exec := &QueryExec{Segments: [][]index.Step{{
		{Work: burn(10 * time.Microsecond), Pages: []int64{0, 1, 2, 3}},
		{Work: burn(10 * time.Microsecond), Pages: []int64{4, 5}},
	}}}
	h.query(0, exec, nil)
	h.run(t)
	reads, _ := h.dev.Stats()
	if reads != 6 {
		t.Errorf("device reads = %d, want 6", reads)
	}
}

func TestRunInsertAndDeleteWrite(t *testing.T) {
	tr := Milvus()
	h := newEngineHarness(tr)
	h.client(0, func(i int) bool { return i < 2 },
		func(o *Op, i int) bool {
			if i == 0 {
				return o.Insert(768 * 4)
			}
			return o.Delete()
		},
		func(*Op, sim.Duration) {})
	h.run(t)
	_, writes := h.dev.Stats()
	if writes != 2 {
		t.Errorf("writes = %d, want 2 (WAL + tombstone)", writes)
	}
}

func TestSetupLabel(t *testing.T) {
	s := Setup{Milvus(), IndexDiskANN}
	if s.Label() != "milvus-DISKANN" {
		t.Errorf("label = %s", s.Label())
	}
}

func TestReplayContiguousStepIsOneRequest(t *testing.T) {
	h := newEngineHarness(Milvus())
	tr := trace.NewTracer(true)
	h.dev.Attach(tr)
	exec := &QueryExec{Segments: [][]index.Step{{
		{Pages: []int64{10, 11, 12, 13}, Contiguous: true}, // posting list
		{Pages: []int64{20, 21}},                           // beam
	}}}
	h.query(0, exec, nil)
	h.run(t)
	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d requests, want 3 (1 contiguous + 2 beam)", len(recs))
	}
	if recs[0].Bytes != 4*4096 {
		t.Errorf("contiguous request = %d bytes, want %d", recs[0].Bytes, 4*4096)
	}
	if recs[1].Bytes != 4096 || recs[2].Bytes != 4096 {
		t.Errorf("beam requests = %d/%d bytes, want 4096 each", recs[1].Bytes, recs[2].Bytes)
	}
}
