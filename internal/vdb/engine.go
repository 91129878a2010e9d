package vdb

import (
	"time"

	"svdbench/internal/index"
	"svdbench/internal/sim"
	"svdbench/internal/storage/ssd"
)

// Engine executes recorded queries inside the discrete-event simulation
// under one trait profile. It owns the scheduler state that produces the
// paper's engine-level differences: admission control, idle-wake penalties,
// the global lock, per-query memory accounting, and segment fan-out.
type Engine struct {
	Traits
	k   *sim.Kernel
	cpu *sim.CPU
	dev *ssd.Device
	rd  reader // submission policy: the device per request, or a coalescing Batcher

	sched      *sim.Semaphore // admission (nil = unbounded)
	readSlots  *sim.Semaphore // segment-worker cap (nil = unbounded)
	globalLock *sim.Semaphore
	segName    string // process name of a fanned-out segment's child

	active    int
	memInUse  int64
	served    int64
	oomFailed int64

	scratch []*replayScratch          // per-query replay state pool
	pfPool  []*prefetchJob            // idle prefetch records
	reap    []*prefetchJob            // prefetches no query joined, still in flight
	made    struct{ scratch, pf int } // pooled objects ever created (drain check)
}

// NewEngine binds a trait profile to a simulation, its CPU, and the storage
// device queries read from.
func NewEngine(k *sim.Kernel, cpu *sim.CPU, dev *ssd.Device, traits Traits) *Engine {
	e := &Engine{Traits: traits, k: k, cpu: cpu, dev: dev, rd: dev, segName: traits.Name + "/seg"}
	if traits.MaxConcurrent > 0 {
		e.sched = sim.NewSemaphore(k, traits.Name+"/sched", int64(traits.MaxConcurrent))
	}
	if traits.IntraQueryParallel && traits.MaxReadConcurrent > 0 {
		e.readSlots = sim.NewSemaphore(k, traits.Name+"/read", int64(traits.MaxReadConcurrent))
	}
	if traits.GlobalLockFraction > 0 {
		e.globalLock = sim.NewSemaphore(k, traits.Name+"/gil", 1)
	}
	return e
}

// reader is how the engine submits reads to its device: blocking in the
// caller's process, or asynchronously with a completion event. *ssd.Device
// charges full submission CPU per request; an *ssd.Batcher coalesces requests
// outstanding across concurrent queries into shared submissions.
type reader interface {
	Read(e *sim.Env, page int64, bytes int)
	ReadAsync(page int64, bytes int, ev *sim.Event)
	ReadPagesAsync(pages []int64, ev *sim.Event)
}

// SetBatcher routes the engine's reads through a request coalescer bound to
// this engine's device.
func (e *Engine) SetBatcher(b *ssd.Batcher) { e.rd = b }

// Device returns the engine's storage device.
func (e *Engine) Device() *ssd.Device { return e.dev }

// CPUResource returns the engine's CPU.
func (e *Engine) CPUResource() *sim.CPU { return e.cpu }

// Served returns the number of queries completed.
func (e *Engine) Served() int64 { return e.served }

// OOMFailures returns the number of queries rejected for memory.
func (e *Engine) OOMFailures() int64 { return e.oomFailed }

// RunQuery executes one recorded query in the calling simulated process,
// blocking for its full virtual duration. It returns ErrOutOfMemory when the
// trait memory budget is exceeded (the paper's LanceDB-HNSW failure mode).
func (e *Engine) RunQuery(env *sim.Env, qe *QueryExec) error {
	// Client → server half of the round trip.
	if e.RPCOverhead > 0 {
		env.Sleep(e.RPCOverhead / 2)
	}
	// Memory admission.
	if e.MemPerQuery > 0 && e.MemBudget > 0 {
		if e.memInUse+e.MemPerQuery > e.MemBudget {
			e.oomFailed++
			return ErrOutOfMemory
		}
		e.memInUse += e.MemPerQuery
		defer func() { e.memInUse -= e.MemPerQuery }()
	}
	// A query arriving at an idle engine pays the thread-pool wake-up;
	// queries arriving while it is already waking queue behind it instead
	// of paying again.
	wasIdle := e.active == 0
	e.active++
	defer func() { e.active-- }()
	if e.IdleWake > 0 && wasIdle {
		env.Sleep(e.IdleWake)
	}

	if e.sched != nil {
		e.sched.Acquire(env, 1)
		defer e.sched.Release(1)
	}

	// Fixed request-processing cost, part of it under the global lock.
	if e.PerQueryCPU > 0 {
		locked := time.Duration(float64(e.PerQueryCPU) * e.GlobalLockFraction)
		free := e.PerQueryCPU - locked
		if locked > 0 && e.globalLock != nil {
			e.globalLock.Acquire(env, 1)
			e.cpu.Use(env, locked)
			e.globalLock.Release(1)
		}
		e.cpu.Use(env, free)
	}

	// Per-segment work: fan out when the engine parallelises a query
	// across segments (Milvus), otherwise run them in sequence.
	if e.IntraQueryParallel && len(qe.Segments) > 1 {
		g := env.NewGroup()
		for _, steps := range qe.Segments {
			steps := steps
			g.Go(e.segName, func(ce *sim.Env) {
				if e.readSlots != nil {
					e.readSlots.Acquire(ce, 1)
					defer e.readSlots.Release(1)
				}
				e.replaySteps(ce, steps)
			})
		}
		g.Wait(env)
	} else {
		for _, steps := range qe.Segments {
			e.replaySteps(env, steps)
		}
	}

	// Server → client half of the round trip.
	if e.RPCOverhead > 0 {
		env.Sleep(e.RPCOverhead / 2)
	}
	e.served++
	return nil
}

// replayScratch is the reusable per-query state of replaySteps. Replaying
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

// replaySteps walks one segment's recorded steps: each step burns its CPU
// on a core, then submits its demand page batch (beam semantics) and, behind
// it, the speculative reads look-ahead recorded — demand transfers keep their
// place ahead of speculative ones on the bus — and parks until the demand
// completes. Node-cache hits recorded in a step were already charged as CPU
// at record time; here they are only reported to the tracer so run metrics
// can show hit rates alongside the device traffic they displaced.
//
// Prefetches are the replay half of look-ahead: each PrefetchRun is read in
// the background while subsequent steps burn CPU, with a completion event
// keyed by first page. When a later step demands pages whose prefetch is
// still in flight, the demand joins the event (waiting only for the residual
// latency) instead of issuing a duplicate read — the mechanism that overlaps
// hop h+1's I/O with hop h's compute.
func (e *Engine) replaySteps(env *sim.Env, steps []index.Step) {
	pageSize := e.dev.Config().PageSize
	var scr *replayScratch // lazily borrowed: only prefetching queries pay
	for _, s := range steps {
		if s.CPU > 0 {
			e.cpu.Use(env, s.CPU)
		}
		if s.CachePages > 0 {
			e.dev.Tracer().EmitCacheHit(env.Now(), s.CachePages, s.CachePages*pageSize)
		}
		if len(s.Prefetch) > 0 && scr == nil {
			scr = e.allocScratch()
		}
		// A contiguous run is one request keyed by its first page; a beam is
		// one page-sized request per page.
		toRead, bytes := s.Pages, pageSize
		if s.Contiguous && len(s.Pages) > 0 {
			toRead, bytes = s.Pages[:1], len(s.Pages)*pageSize
		}
		// Split the demand into pages already in flight from a prefetch, to
		// join, and the rest, to read.
		var joins []*prefetchJob
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
			joins, toRead = scr.joins, scr.toRead
		}
		var dem *sim.Event
		switch {
		case len(toRead) == 1 && len(s.Prefetch) == 0:
			// Nothing to submit behind it: block in the query's own process.
			// Per request that also keeps the doorbell off a freshly spawned
			// process, which would run later within the same instant.
			e.rd.Read(env, toRead[0], bytes)
		case len(toRead) == 1:
			dem = e.k.AllocEvent()
			e.rd.ReadAsync(toRead[0], bytes, dem)
		case len(toRead) > 1:
			dem = e.k.AllocEvent()
			e.rd.ReadPagesAsync(toRead, dem)
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
		if dem != nil {
			dem.Wait(env)
			e.k.ReleaseEvent(dem)
		}
		for _, pj := range joins {
			pj.ev.Wait(env)
			e.releasePF(pj)
		}
	}
	if scr != nil {
		// Sweep in issue order (deterministic — never map iteration). Joined
		// jobs were released at the join and possibly reissued since, so their
		// refs are stale; completed-but-wasted prefetches release now; those
		// still in flight have no process to free them and park on the reap
		// list.
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
}

// RunInsert executes one insert in simulated time: request processing plus
// a write-ahead-log append of the vector rounded up to page granularity.
func (e *Engine) RunInsert(env *sim.Env, vectorBytes int) {
	if e.RPCOverhead > 0 {
		env.Sleep(e.RPCOverhead / 2)
	}
	e.cpu.Use(env, e.PerQueryCPU/2+10*time.Microsecond)
	pageSize := e.dev.Config().PageSize
	walBytes := ((vectorBytes + pageSize - 1) / pageSize) * pageSize
	e.dev.Write(env, 0, walBytes)
	if e.RPCOverhead > 0 {
		env.Sleep(e.RPCOverhead / 2)
	}
}

// RunDelete executes one delete: request processing plus a one-page
// tombstone WAL record.
func (e *Engine) RunDelete(env *sim.Env) {
	if e.RPCOverhead > 0 {
		env.Sleep(e.RPCOverhead / 2)
	}
	e.cpu.Use(env, e.PerQueryCPU/2+5*time.Microsecond)
	e.dev.Write(env, 0, e.dev.Config().PageSize)
	if e.RPCOverhead > 0 {
		env.Sleep(e.RPCOverhead / 2)
	}
}
