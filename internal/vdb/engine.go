package vdb

import (
	"time"

	"svdbench/internal/index"
	"svdbench/internal/sim"
	"svdbench/internal/storage/ssd"
)

// Engine executes recorded queries inside the discrete-event simulation
// under one trait profile. It owns the scheduler state that produces the
// paper's engine-level differences: idle-wake penalties,
// the global lock, per-query memory accounting, and segment fan-out.
//
// The engine runs no simulated process: each query, insert or delete is an
// Op, a state machine its owner drives from a sim.Timer's wake-ups, and a
// fanned-out segment is a pooled timer of the engine's own.
type Engine struct {
	Traits
	k       *sim.Kernel
	cpu     *sim.CPU
	dev     *ssd.Device
	rd      reader          // submission policy: the device per request, or a coalescing Batcher
	batched bool            // rd is a Batcher
	cost    index.CostModel // prices each recorded step's burst

	// The RPC half-trips and the idle-wake sleeps each take one fixed delay,
	// so their wake times never decrease: each stream rides a lane, not the
	// event heap.
	rpc, wake *sim.Lane

	readSlots  *sim.Semaphore // segment-worker cap (nil = unbounded)
	globalLock *sim.Semaphore

	active    int
	memInUse  int64
	served    int64
	oomFailed int64

	scratch []*replayScratch                 // per-query replay state pool
	pfPool  []*prefetchJob                   // idle prefetch records
	reap    []*prefetchJob                   // prefetches no query joined, still in flight
	tasks   []*segTask                       // idle fanned-out segment timers
	made    struct{ scratch, pf, tasks int } // pooled objects ever created (drain check)
}

// NewEngine binds a trait profile to a simulation, its CPU, and the storage
// device queries read from.
func NewEngine(k *sim.Kernel, cpu *sim.CPU, dev *ssd.Device, traits Traits) *Engine {
	e := &Engine{Traits: traits, k: k, cpu: cpu, dev: dev, rd: dev, cost: index.DefaultCostModel(),
		rpc: k.NewLane(), wake: k.NewLane()}
	if traits.IntraQueryParallel && traits.MaxReadConcurrent > 0 {
		e.readSlots = sim.NewSemaphore(k, traits.Name+"/read", int64(traits.MaxReadConcurrent))
	}
	if traits.GlobalLockFraction > 0 {
		e.globalLock = sim.NewSemaphore(k, traits.Name+"/gil", 1)
	}
	return e
}

// reader is how the engine submits reads to its device asynchronously, with
// a completion event. *ssd.Device charges full submission CPU per request;
// an *ssd.Batcher coalesces requests outstanding across concurrent queries
// into shared submissions.
type reader interface {
	ReadAsync(page int64, bytes int, ev *sim.Event)
	ReadPagesAsync(pages []int64, ev *sim.Event)
}

// SetBatcher routes the engine's reads through a request coalescer bound to
// this engine's device.
func (e *Engine) SetBatcher(b *ssd.Batcher) { e.rd, e.batched = b, true }

// Device returns the engine's storage device.
func (e *Engine) Device() *ssd.Device { return e.dev }

// Served returns the number of queries completed.
func (e *Engine) Served() int64 { return e.served }

// replayScratch is the reusable per-query state of a segment replay. Replaying
// queries interleave inside the simulation, so each in-flight query borrows
// its own instance from the engine's pool; the steady state allocates
// nothing per query.
type replayScratch struct {
	inflight []inflightPF   // in-flight prefetches not yet joined, one per first page
	jobs     []pfRef        // every prefetch issued by this query
	joins    []*prefetchJob // current step's joined prefetches
	toRead   []int64        // current step's demand pages
}

// inflightPF keys an in-flight prefetch by its first page. A query has at
// most a few dozen in flight, so a scan beats a map's hashing.
type inflightPF struct {
	first int64
	pj    *prefetchJob
}

// inflightAt returns the index of first's entry in s.inflight, or -1.
func (s *replayScratch) inflightAt(first int64) int {
	for i := range s.inflight {
		if s.inflight[i].first == first {
			return i
		}
	}
	return -1
}

// pfRef records one issued prefetch for the end-of-query sweep. Joined jobs
// are released — and may be reissued — before the sweep runs, so the ref
// snapshots the job's generation: a stale generation means this ref's
// incarnation is already back in the pool.
type pfRef struct {
	pj  *prefetchJob
	gen uint32
}

func (e *Engine) allocScratch() *replayScratch {
	if n := len(e.scratch); n > 0 {
		s := e.scratch[n-1]
		e.scratch = e.scratch[:n-1]
		return s
	}
	// Sized for a deep look-ahead schedule up front: the scratch is reused
	// for the engine's lifetime, so growth allocations are worth avoiding.
	e.made.scratch++
	return &replayScratch{
		inflight: make([]inflightPF, 0, 64),
		jobs:     make([]pfRef, 0, 64),
		joins:    make([]*prefetchJob, 0, 16),
		toRead:   make([]int64, 0, 16),
	}
}

func (e *Engine) releaseScratch(s *replayScratch) {
	s.inflight, s.jobs, s.joins, s.toRead = s.inflight[:0], s.jobs[:0], s.joins[:0], s.toRead[:0]
	e.scratch = append(e.scratch, s)
}

// prefetchJob is the pooled record of one in-flight prefetch: the event its
// read fires. A demand step joining the prefetch waits on ev and releases the
// job immediately; jobs the query never joined are swept at query end —
// released when already complete, otherwise parked on the engine's reap list
// until their read lands.
type prefetchJob struct {
	ev  *sim.Event
	gen uint32
}

func (e *Engine) releasePF(pj *prefetchJob) {
	pj.gen++ // invalidate outstanding pfRefs to this incarnation
	e.k.ReleaseEvent(pj.ev)
	pj.ev = nil
	e.pfPool = append(e.pfPool, pj)
}

// reapPrefetches releases unjoined prefetches whose reads have since
// completed. Called on each query's sweep, keeping the unfired tail small.
func (e *Engine) reapPrefetches() {
	kept := e.reap[:0]
	for _, pj := range e.reap {
		if pj.ev.Fired() {
			e.releasePF(pj)
		} else {
			kept = append(kept, pj)
		}
	}
	e.reap = kept
}

// prefetch submits one speculative read and registers it with the query's
// scratch under its first page.
func (e *Engine) prefetch(scr *replayScratch, first int64, bytes int) {
	var pj *prefetchJob
	if n := len(e.pfPool); n > 0 {
		pj = e.pfPool[n-1]
		e.pfPool = e.pfPool[:n-1]
	} else {
		pj = &prefetchJob{}
		e.made.pf++
	}
	pj.ev = e.k.AllocEvent()
	// A later prefetch of the same first page replaces the earlier entry.
	if i := scr.inflightAt(first); i >= 0 {
		scr.inflight[i].pj = pj
	} else {
		scr.inflight = append(scr.inflight, inflightPF{first: first, pj: pj})
	}
	scr.jobs = append(scr.jobs, pfRef{pj: pj, gen: pj.gen})
	e.rd.ReadAsync(first, bytes, pj.ev)
}

// Op is one engine operation — a recorded query, an insert or a delete —
// replayed as a state machine on its owner's timer: Query, Insert or Delete
// starts it and reports whether it finished without blocking; until then the
// owner calls Resume at every wake-up of the timer. Each wake-up takes the
// (at, seq) slot the operation run as a process would, so the event sequence
// is the process form's.
type Op struct {
	e     *Engine
	t     *sim.Timer
	qe    *QueryExec // the query replayed; nil for a write
	phase opPhase
	err   error
	seg   int          // next sequential segment
	left  int          // fanned-out segments still running
	run   segReplay    // the sequential segment in progress
	cpu   sim.Burst    // the request-processing burst
	wcpu  sim.Duration // a write's request-processing CPU
	req   ssd.Request  // a write's WAL record
}

// opPhase is where an Op resumes at its next wake-up; opPhaseNames names
// what it waits for there.
type opPhase uint8

const (
	opIdle opPhase = iota
	opAdmit
	opLock
	opLocked // holding the global lock
	opFree
	opSegments
	opSteps
	opReply // after the sequential or the fanned-out segments
	opDone
	opWriteCPU
	opWrite
)

var opPhaseNames = [...]string{"idle", "rpc in", "idle wake", "global lock", "cpu",
	"segments", "steps", "fan-out", "rpc out", "write cpu", "wal write"}

// NewOp returns an idle operation of the engine driven by timer t.
func (e *Engine) NewOp(t *sim.Timer) *Op { return &Op{e: e, t: t} }

// Query starts replaying qe at the current instant. The query fails with
// ErrOutOfMemory (see Err) when the trait memory budget is exceeded — the
// paper's LanceDB-HNSW failure mode.
func (o *Op) Query(qe *QueryExec) bool {
	o.qe, o.err = qe, nil
	return o.begin()
}

// Insert starts one insert at the current instant: request processing plus a
// write-ahead-log append of the vector rounded up to page granularity.
func (o *Op) Insert(vectorBytes int) bool {
	pageSize := o.e.dev.Config().PageSize
	return o.write(o.e.PerQueryCPU/2+10*time.Microsecond, ((vectorBytes+pageSize-1)/pageSize)*pageSize)
}

// Delete starts one delete at the current instant: request processing plus
// a one-page tombstone WAL record.
func (o *Op) Delete() bool {
	return o.write(o.e.PerQueryCPU/2+5*time.Microsecond, o.e.dev.Config().PageSize)
}

func (o *Op) write(cpu time.Duration, bytes int) bool {
	o.qe, o.err, o.wcpu, o.req = nil, nil, cpu, ssd.WriteRequest(bytes)
	return o.begin()
}

// begin runs the request half of the round trip, which every operation
// starts with.
func (o *Op) begin() bool {
	o.phase = opAdmit
	if o.e.RPCOverhead > 0 {
		return o.sleep(o.e.rpc, o.e.RPCOverhead/2)
	}
	return o.Resume()
}

// Err returns the error the last finished operation failed with, or nil.
func (o *Op) Err() error { return o.err }

// Phase names what a blocked operation waits in.
func (o *Op) Phase() string { return opPhaseNames[o.phase] }

// sleep parks the operation for d through lane l; it always reports false,
// for returning.
func (o *Op) sleep(l *sim.Lane, d time.Duration) bool {
	l.WakeAt(o.t, o.e.k.Now().Add(d))
	return false
}

// lockedCPU is the share of the request-processing CPU run under the global
// lock.
func (e *Engine) lockedCPU() time.Duration {
	return time.Duration(float64(e.PerQueryCPU) * e.GlobalLockFraction)
}

// Resume advances the operation at a wake-up of its timer and reports
// whether it has finished.
func (o *Op) Resume() bool {
	e := o.e
	for {
		switch o.phase {
		case opAdmit:
			if o.qe == nil {
				o.phase = opWriteCPU
				continue
			}
			if e.MemPerQuery > 0 && e.MemBudget > 0 {
				if e.memInUse+e.MemPerQuery > e.MemBudget {
					e.oomFailed++
					o.err, o.phase = ErrOutOfMemory, opIdle
					return true
				}
				e.memInUse += e.MemPerQuery
			}
			// A query arriving at an idle engine pays the thread-pool
			// wake-up; queries arriving while it is already waking queue
			// behind it instead of paying again.
			wasIdle := e.active == 0
			e.active++
			o.phase = opLock
			if e.IdleWake > 0 && wasIdle {
				return o.sleep(e.wake, e.IdleWake)
			}
		case opLock:
			// Fixed request-processing cost, part of it under the global lock.
			o.phase = opFree
			if e.lockedCPU() > 0 && e.globalLock != nil {
				o.phase = opLocked
				if !e.globalLock.AcquireTimer(o.t, 1) {
					return false
				}
			}
		case opLocked:
			if !e.cpu.Burn(o.t, &o.cpu, e.lockedCPU(), e.k) {
				return false
			}
			e.globalLock.Release(1)
			o.phase = opFree
		case opFree:
			if !e.cpu.Burn(o.t, &o.cpu, e.PerQueryCPU-e.lockedCPU(), e.k) {
				return false
			}
			o.phase = opSegments
		case opSegments:
			// Fan out when the engine parallelises a query across segments
			// (Milvus), otherwise run them in sequence.
			if segs := o.qe.Segments; e.IntraQueryParallel && len(segs) > 1 {
				o.left, o.phase = len(segs), opReply
				for _, steps := range segs {
					e.fork(o, steps)
				}
				return false
			}
			o.seg, o.phase = 0, opSteps
		case opSteps:
			for segs := o.qe.Segments; o.seg < len(segs); o.seg++ {
				if o.run.steps == nil {
					o.run.steps = segs[o.seg]
				}
				if !e.replay(o.t, &o.run) {
					return false
				}
			}
			o.phase = opReply
		case opWriteCPU:
			if !e.cpu.Burn(o.t, &o.cpu, o.wcpu, e.k) {
				return false
			}
			o.phase = opWrite
		case opWrite:
			if !e.dev.Serve(o.t, &o.req) {
				return false
			}
			o.phase = opReply
		case opReply:
			o.phase = opDone
			if e.RPCOverhead > 0 {
				return o.sleep(e.rpc, e.RPCOverhead/2)
			}
		case opDone:
			o.phase = opIdle
			if o.qe != nil {
				e.served++
				e.active--
				if e.MemPerQuery > 0 && e.MemBudget > 0 {
					e.memInUse -= e.MemPerQuery
				}
			}
			return true
		default:
			panic("vdb: Resume of an idle Op")
		}
	}
}

// segTask is one segment of a fanned-out query, replayed on a pooled timer of
// its own under a read slot; the last one to finish wakes the query.
type segTask struct {
	e    *Engine
	t    *sim.Timer
	o    *Op
	held bool // past the read-slot wait
	run  segReplay
}

// fork starts a segment task for o at the current instant. Its first step
// runs on its own wake-up, after those already scheduled for this instant.
func (e *Engine) fork(o *Op, steps []index.Step) {
	var c *segTask
	if n := len(e.tasks); n > 0 {
		c = e.tasks[n-1]
		e.tasks = e.tasks[:n-1]
	} else {
		c = &segTask{e: e}
		c.t = sim.NewTimer(c)
		e.made.tasks++
	}
	c.o, c.run.steps = o, steps
	e.k.WakeAt(c.t, e.k.Now())
}

func (c *segTask) Wake() {
	e := c.e
	if !c.held {
		c.held = true
		if e.readSlots != nil && !e.readSlots.AcquireTimer(c.t, 1) {
			return
		}
	}
	if !e.replay(c.t, &c.run) {
		return
	}
	if e.readSlots != nil {
		e.readSlots.Release(1)
	}
	o := c.o
	c.o, c.held = nil, false
	e.tasks = append(e.tasks, c)
	if o.left--; o.left == 0 {
		e.k.WakeAt(o.t, e.k.Now())
	}
}

// segReplay is one segment's recorded steps replayed on a timer. Each step
// burns its CPU on a core, then submits its demand page batch (beam
// semantics) and, behind it, the speculative reads look-ahead recorded —
// demand transfers keep their place ahead of speculative ones on the bus —
// and parks until the demand completes. The burst is the step's counted work
// and node-cache hits, priced by the engine's cost model as it starts; the
// hits are also reported to the tracer so run metrics can show hit rates
// alongside the device traffic they displaced.
//
// Prefetches are the replay half of look-ahead: each PrefetchRun is read in
// the background while subsequent steps burn CPU, with a completion event
// keyed by first page. When a later step demands pages whose prefetch is
// still in flight, the demand joins the event (waiting only for the residual
// latency) instead of issuing a duplicate read — the mechanism that overlaps
// hop h+1's I/O with hop h's compute.
type segReplay struct {
	steps []index.Step
	i     int // current step
	phase stepPhase
	scr   *replayScratch // lazily borrowed: only prefetching queries pay
	cpu   sim.Burst
	req   ssd.Request    // a blocking per-request demand read
	dem   *sim.Event     // an asynchronous demand's completion
	joins []*prefetchJob // the step's joined prefetches, joins[:j] done
	j     int
}

// stepPhase is where a segment replay resumes within its current step.
type stepPhase uint8

const (
	stepCPU    stepPhase = iota // the step's CPU burst
	stepRead                    // a blocking per-request demand read
	stepDemand                  // waiting for the asynchronous demand
	stepJoin                    // waiting for the joined prefetches
)

// replay advances r on behalf of timer t and reports whether its last step
// has finished, leaving r ready for the next segment.
func (e *Engine) replay(t *sim.Timer, r *segReplay) bool {
	for r.i < len(r.steps) {
		s := &r.steps[r.i]
		switch r.phase {
		case stepCPU:
			if !e.cpu.Burn(t, &r.cpu, e.cost.Price(s), e.k) {
				return false
			}
			e.submit(r, s)
		case stepRead:
			if !e.dev.Serve(t, &r.req) {
				return false
			}
			r.phase = stepJoin
		case stepDemand:
			if !r.dem.WaitTimer(t) {
				return false
			}
			e.k.ReleaseEvent(r.dem)
			r.dem, r.phase = nil, stepJoin
		case stepJoin:
			for ; r.j < len(r.joins); r.j++ {
				if !r.joins[r.j].ev.WaitTimer(t) {
					return false
				}
				e.releasePF(r.joins[r.j])
			}
			r.joins, r.j = nil, 0
			r.i, r.phase = r.i+1, stepCPU
		}
	}
	if scr := r.scr; scr != nil {
		// Sweep in issue order (deterministic — never map iteration). Joined
		// jobs were released at the join and possibly reissued since, so their
		// refs are stale; completed-but-wasted prefetches release now; those
		// still in flight have no query left to free them and park on the
		// reap list.
		e.reapPrefetches()
		for _, ref := range scr.jobs {
			switch pj := ref.pj; {
			case pj.gen != ref.gen:
			case pj.ev.Fired():
				e.releasePF(pj)
			default:
				e.reap = append(e.reap, pj)
			}
		}
		e.releaseScratch(scr)
	}
	r.steps, r.i, r.scr = nil, 0, nil
	return true
}

// submit issues step s's device traffic once its CPU has burnt and sets the
// wait r parks in next.
func (e *Engine) submit(r *segReplay, s *index.Step) {
	pageSize := e.dev.Config().PageSize
	if n := int(s.CachePages); n > 0 {
		e.dev.Tracer().EmitCacheHit(e.k.Now(), n, n*pageSize)
	}
	if len(s.Prefetch) > 0 && r.scr == nil {
		r.scr = e.allocScratch()
	}
	scr := r.scr
	// A contiguous run is one request keyed by its first page; a beam is one
	// page-sized request per page.
	toRead, bytes := s.Pages, pageSize
	if s.Contiguous && len(s.Pages) > 0 {
		toRead, bytes = s.Pages[:1], len(s.Pages)*pageSize
	}
	// Split the demand into pages already in flight from a prefetch, to join,
	// and the rest, to read.
	if scr != nil && len(scr.inflight) > 0 {
		scr.joins, scr.toRead = scr.joins[:0], scr.toRead[:0]
		for _, p := range toRead {
			if i := scr.inflightAt(p); i >= 0 {
				scr.joins = append(scr.joins, scr.inflight[i].pj)
				last := len(scr.inflight) - 1
				scr.inflight[i] = scr.inflight[last]
				scr.inflight = scr.inflight[:last]
			} else {
				scr.toRead = append(scr.toRead, p)
			}
		}
		r.joins, toRead = scr.joins, scr.toRead
	}
	r.phase = stepJoin
	switch {
	case len(toRead) == 1 && len(s.Prefetch) == 0 && !e.batched:
		// Nothing to submit behind it: the doorbell rings in the query's own
		// wake-up, where a freshly started timer would ring it later within
		// the same instant.
		r.req, r.phase = ssd.ReadRequest(bytes), stepRead
	case len(toRead) == 1:
		r.dem, r.phase = e.k.AllocEvent(), stepDemand
		e.rd.ReadAsync(toRead[0], bytes, r.dem)
	case len(toRead) > 1:
		r.dem, r.phase = e.k.AllocEvent(), stepDemand
		e.rd.ReadPagesAsync(toRead, r.dem)
	}
	for _, pf := range s.Prefetch {
		if pf.Contiguous && len(pf.Pages) > 0 {
			e.prefetch(scr, pf.Pages[0], len(pf.Pages)*pageSize)
			continue
		}
		for _, p := range pf.Pages {
			e.prefetch(scr, p, pageSize)
		}
	}
}
