package vdb

// The engine's operations as simulated processes: the replay the engine ran
// before Op, kept as the reference the timer replay is tested against
// (TestTimerReplayMatchesProcess, FuzzTimerReplay). It shares the engine's
// pools and its prefetch bookkeeping, not its state machine.

import (
	"time"

	"svdbench/internal/index"
	"svdbench/internal/sim"
	"svdbench/internal/storage/ssd"
)

// RunQuery executes one recorded query in the calling simulated process,
// blocking for its full virtual duration. It returns ErrOutOfMemory when the
// trait memory budget is exceeded (the paper's LanceDB-HNSW failure mode).
// It is the process form of Op.Query; its segment fan-out joins on an Event.
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
		// The last child to finish fires the join.
		left, joined := len(qe.Segments), sim.NewEvent(e.k)
		for _, steps := range qe.Segments {
			steps := steps
			e.k.Spawn(e.Name+"/seg", func(ce *sim.Env) {
				func() {
					if e.readSlots != nil {
						e.readSlots.Acquire(ce, 1)
						defer e.readSlots.Release(1)
					}
					e.replaySteps(ce, steps)
				}()
				if left--; left == 0 {
					joined.Fire()
				}
			})
		}
		joined.Wait(env)
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

// replaySteps walks one segment's recorded steps: each step burns its CPU
// on a core, then submits its demand page batch (beam semantics) and, behind
// it, the speculative reads look-ahead recorded — demand transfers keep their
// place ahead of speculative ones on the bus — and parks until the demand
// completes. Node-cache hits recorded in a step are priced into its burst and
// also reported to the tracer, so run metrics can show hit rates alongside
// the device traffic they displaced.
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
		if d := e.cost.Price(&s); d > 0 {
			e.cpu.Use(env, d)
		}
		if n := int(s.CachePages); n > 0 {
			e.dev.Tracer().EmitCacheHit(env.Now(), n, n*pageSize)
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
			if e.batched {
				e.rd.(*ssd.Batcher).Read(env, toRead[0], bytes)
			} else {
				e.dev.Read(env, toRead[0], bytes)
			}
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
