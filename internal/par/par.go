// Package par is the tree's one host parallel loop. Index builds, batch
// searches and recordings, a lone query's segment fan-out, experiment cells
// and ground truth all run through For: that work is preprocessing or host
// serving, never simulated time, so it runs on real cores.
package par

import (
	"sync"
	"sync/atomic"
)

// For calls f(w, i) once for every i in [0, n) and returns when every call
// has returned. The calls run on min(width, n) workers: the calling
// goroutine is worker 0, and the others are goroutines started for this
// call, so there is no pool and nothing to close. Workers claim i from one
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
	var s struct { // one heap object: the claim counter and the join
		next atomic.Int64
		wg   sync.WaitGroup
	}
	s.wg.Add(width - 1)
	for w := 1; w < width; w++ {
		go func() {
			defer s.wg.Done()
			drain(&s.next, n, w, f)
		}()
	}
	drain(&s.next, n, 0, f)
	s.wg.Wait()
}

// drain is worker w's loop: claim the next i below n and call f(w, i).
func drain(next *atomic.Int64, n, w int, f func(w, i int)) {
	for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
		f(w, i)
	}
}
