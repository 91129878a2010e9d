// Package par is the tree's one host parallel loop. Index builds, batch
// searches and recordings, a lone query's segment fan-out, experiment cells
// and ground truth all run through For: that work is preprocessing or host
// serving, never simulated time, so it runs on real cores.
//
// A call's helpers are resident workers when one is idle. A worker that
// finishes its share stays for the next call: it polls for it for
// pollWindow, then parks until a call hands it one. At most
// min(GOMAXPROCS, NumCPU) − 1 workers stay; a call that finds none idle
// (the first, or a nested one while every worker is busy) starts a
// goroutine per missing helper, which stays only if there is room. Nothing
// limits how many run at once, and there is nothing to close: an idle
// worker holds nothing of a finished call.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// pollWindow is how long a worker that finished its share polls for its
// next call before it parks. Waking a parked goroutine's thread takes
// 75–105 µs (p50) on a 2-vCPU VM; a polling worker starts in 1.4 µs. The
// window has to span the gap between two fanned queries of a closed-loop
// client, which is the query's uneven split (the brute-forced tail is its
// largest unit) plus the merge and the client's own work: on
// serve-seg-mixed 99.7 % of those gaps are under 100 µs, and the rest of a
// worker's idle spells (collection rebuilds between rounds) run 0.5–20 ms.
// Windows of 100 µs, 300 µs and 1 ms served the same queries per second
// and left the quick suite's CPU time inside its run-to-run spread; 300 µs
// is three times the longest routine gap, and a longer window only burns a
// core where calls are sparse. Polling yields the core (runtime.Gosched)
// between looks, so it delays no runnable goroutine.
const pollWindow = 300 * time.Microsecond

// job is one parallel call's shared state. Jobs are recycled through
// pool.jobs, so a call that finds its helpers idle allocates nothing.
type job struct {
	next atomic.Int64 // the claim counter
	n    int
	f    func(w, i int)
	left atomic.Int32   // helpers still on this call, which the caller polls
	wg   sync.WaitGroup // the same, which it then waits for
}

// worker is a resident helper. A call hands it a job by storing w and then
// the job; a parked worker also needs a token on wake.
type worker struct {
	job    atomic.Pointer[job]
	w      int
	parked atomic.Bool
	wake   chan struct{}
}

// quit, handed to an idle worker, makes it exit: GOMAXPROCS was lowered.
var quit = new(job)

var pool struct {
	mu   sync.Mutex
	idle []*worker // at most resident()
	jobs []*job
}

// resident is how many workers may stay idle between calls.
func resident() int {
	return min(runtime.GOMAXPROCS(0), runtime.NumCPU()) - 1
}

// For calls f(w, i) once for every i in [0, n) and returns when every call
// has returned. The calls run on min(width, n) workers: the calling
// goroutine is worker 0, and the others are resident workers or goroutines
// started for this call (see the package comment). Workers claim i from one
// shared counter; w, in [0, min(width, n)), names the worker that makes the
// call, so f can pick per-worker scratch by it. A width of 1 or less is a
// plain ascending loop on the caller that starts no goroutine.
//
// The schedule is not deterministic, so f must write its result by i (and
// keep per-worker state that never reaches a result) for the outcome not to
// depend on it.
func For(width, n int, f func(w, i int)) {
	width = min(width, n)
	if width <= 1 {
		for i := range n {
			f(0, i)
		}
		return
	}
	j := start(width, n, f)
	j.drain(0)
	// Poll before blocking: a caller that parks here wakes on its helper's
	// core, and the two trade threads at every call.
	poll(func() bool { return j.left.Load() == 0 })
	j.wg.Wait()
	j.f = nil
	pool.mu.Lock()
	pool.jobs = append(pool.jobs, j)
	pool.mu.Unlock()
}

// start hands helper slots 1 to width−1 of a new call to idle workers and
// starts a goroutine for each slot left over. It first lets the workers
// beyond resident() go.
func start(width, n int, f func(w, i int)) *job {
	pool.mu.Lock()
	var j *job
	if k := len(pool.jobs) - 1; k >= 0 {
		j, pool.jobs[k], pool.jobs = pool.jobs[k], nil, pool.jobs[:k]
	} else {
		j = new(job)
	}
	j.next.Store(0)
	j.n, j.f = n, f
	j.left.Store(int32(width - 1))
	j.wg.Add(width - 1)
	for len(pool.idle) > resident() {
		popIdle().hand(quit, 0)
	}
	w := 1
	for ; w < width && len(pool.idle) > 0; w++ {
		popIdle().hand(j, w)
	}
	pool.mu.Unlock()
	for ; w < width; w++ {
		go run(j, w)
	}
	return j
}

// popIdle takes the most recently idle worker; pool.mu is held.
func popIdle() *worker {
	k := len(pool.idle) - 1
	wk := pool.idle[k]
	pool.idle[k], pool.idle = nil, pool.idle[:k]
	return wk
}

// hand gives j to wk as worker w, waking it if it has parked; pool.mu is
// held.
func (wk *worker) hand(j *job, w int) {
	wk.w = w
	wk.job.Store(j)
	if wk.parked.Load() {
		select {
		case wk.wake <- struct{}{}:
		default: // a token is already there
		}
	}
}

// run is a helper: it runs its share of j as worker w, then the calls
// handed to it for as long as it stays resident.
func run(j *job, w int) {
	var wk *worker
	for j != quit {
		j.drain(w)
		// Join the idle list before letting the caller return, so its
		// next call finds this worker.
		stay := idle(&wk)
		j.left.Add(-1)
		j.wg.Done()
		if !stay {
			return
		}
		j, w = wk.await()
	}
}

// idle puts the calling helper on the idle list, making its worker on
// first use, and reports false when the list is full.
func idle(wk **worker) bool {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	if len(pool.idle) >= resident() {
		return false
	}
	if *wk == nil {
		*wk = &worker{wake: make(chan struct{}, 1)}
	}
	pool.idle = append(pool.idle, *wk)
	return true
}

// await returns the next job handed to wk and its worker index: polling
// for pollWindow, then parked. Handing stores the job before it reads
// parked, and await sets parked before its last look at the job, so one of
// the two sees the other: no hand-off is lost.
func (wk *worker) await() (*job, int) {
	var j *job
	if poll(func() bool { j = wk.job.Swap(nil); return j != nil }) {
		return j, wk.w
	}
	wk.parked.Store(true)
	defer wk.parked.Store(false)
	for {
		if j := wk.job.Swap(nil); j != nil {
			return j, wk.w
		}
		<-wk.wake
	}
}

// poll calls done until it reports true or pollWindow has passed, yielding
// the core between calls, and reports whether it did.
func poll(done func() bool) bool {
	for t := time.Now(); time.Since(t) < pollWindow; runtime.Gosched() {
		if done() {
			return true
		}
	}
	return false
}

// drain is worker w's loop: claim the next i below n and call f(w, i).
func (j *job) drain(w int) {
	n, f := j.n, j.f
	for i := int(j.next.Add(1)) - 1; i < n; i = int(j.next.Add(1)) - 1 {
		f(w, i)
	}
}
