package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// idleWorkers is the length of the idle list.
func idleWorkers() int {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	return len(pool.idle)
}

// waitParked waits until every idle worker has parked.
func waitParked(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(pollWindow) {
		pool.mu.Lock()
		parked := true
		for _, wk := range pool.idle {
			parked = parked && wk.parked.Load()
		}
		pool.mu.Unlock()
		if parked {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("an idle worker still polls 10 s after its last call")
		}
	}
}

// withProcs runs the test at GOMAXPROCS procs (skipping it when the host has
// fewer cores than need, the resident workers it relies on) and restores the
// setting after.
func withProcs(t *testing.T, procs, need int) {
	t.Helper()
	if runtime.NumCPU() < need {
		t.Skipf("%d cores, the test needs %d", runtime.NumCPU(), need)
	}
	old := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestForRunsEachIndexOnce: every i in [0, n) runs exactly once, every
// worker index lies in [0, min(width, n)), and no worker index is in two
// calls at once (per-worker scratch relies on it), at widths below, at and
// above n.
func TestForRunsEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64} {
		for width := -1; width <= n+2; width++ {
			runs := make([]atomic.Int32, n)
			workers := max(1, min(width, n))
			busy := make([]atomic.Bool, workers)
			For(width, n, func(w, i int) {
				if w < 0 || w >= workers {
					t.Errorf("n %d width %d: worker %d outside [0, %d)", n, width, w, workers)
					return
				}
				if busy[w].Swap(true) {
					t.Errorf("n %d width %d: worker %d in two calls at once", n, width, w)
				}
				runtime.Gosched()
				runs[i].Add(1)
				busy[w].Store(false)
			})
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Errorf("n %d width %d: index %d ran %d times", n, width, i, got)
				}
			}
		}
	}
}

// TestForWidthOneIsAscendingLoop: at width 1 (and below) every call is
// worker 0's, in ascending order, on the caller: no goroutine is started and
// no worker is taken or returned. A helper of an earlier test may still be
// exiting while the loop runs, so the goroutine count may fall; it must
// never rise.
func TestForWidthOneIsAscendingLoop(t *testing.T) {
	For(2, 2, func(_, _ int) {}) // the loops below must leave a worker idle
	for _, width := range []int{-1, 0, 1} {
		var order []int
		before := runtime.NumGoroutine()
		idleBefore := idleWorkers()
		For(width, 9, func(w, i int) {
			if w != 0 {
				t.Errorf("width %d: call %d on worker %d", width, i, w)
			}
			if now := runtime.NumGoroutine(); now > before {
				t.Errorf("width %d: %d goroutines during call %d, %d before the loop", width, now, i, before)
			}
			if now := idleWorkers(); now != idleBefore {
				t.Errorf("width %d: %d idle workers during call %d, %d before the loop", width, now, i, idleBefore)
			}
			order = append(order, i)
		})
		for i, got := range order {
			if got != i {
				t.Fatalf("width %d: order %v, want ascending", width, order)
			}
		}
		if len(order) != 9 {
			t.Fatalf("width %d: %d calls, want 9", width, len(order))
		}
	}
}

// TestForNested: a For inside a For completes, and its calls run once.
func TestForNested(t *testing.T) {
	const outer, inner = 6, 40
	var runs [outer][inner]atomic.Int32
	For(4, outer, func(_, i int) {
		For(3, inner, func(_, j int) { runs[i][j].Add(1) })
	})
	for i := range runs {
		for j := range runs[i] {
			if got := runs[i][j].Load(); got != 1 {
				t.Fatalf("outer %d inner %d ran %d times", i, j, got)
			}
		}
	}
}

// TestForWarmStartsNoGoroutine: once a helper is resident, back-to-back
// calls at width 2 hand it every call: the goroutine count never rises
// between calls, and the helper leaves the idle list only while it works.
func TestForWarmStartsNoGoroutine(t *testing.T) {
	withProcs(t, 2, 2)
	var sum atomic.Int64
	add := func(_, i int) { sum.Add(int64(i)) }
	For(2, 8, add)
	if got := idleWorkers(); got != 1 {
		t.Fatalf("%d idle workers after a width-2 call at GOMAXPROCS 2, want 1", got)
	}
	before := runtime.NumGoroutine()
	for c := range 100 {
		For(2, 8, add)
		if now := runtime.NumGoroutine(); now > before {
			t.Fatalf("call %d: %d goroutines, %d after warm-up", c, now, before)
		}
		if got := idleWorkers(); got != 1 {
			t.Fatalf("call %d: %d idle workers after the call, want 1", c, got)
		}
	}
	if got, want := sum.Load(), int64(101*28); got != want {
		t.Fatalf("sum of indices %d, want %d", got, want)
	}
}

// TestForWarmAllocatesNothing: a call handed to a resident worker takes its
// per-call state from the recycled jobs. (A parked worker's first wait may
// allocate the runtime's wait record, hence fewer than one allocation per
// ten calls rather than none.) testing.AllocsPerRun cannot see this path:
// it measures at GOMAXPROCS 1, where no worker stays.
func TestForWarmAllocatesNothing(t *testing.T) {
	withProcs(t, 2, 2)
	var sum atomic.Int64
	add := func(_, i int) { sum.Add(int64(i)) }
	For(2, 8, add)
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		For(2, 8, add)
	}
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got >= calls/10 {
		t.Errorf("%d allocations over %d warm calls, want fewer than %d", got, calls, calls/10)
	}
}

// TestForParkedWorkerWakes: a resident worker that has parked (its poll
// window is over) still takes the next call.
func TestForParkedWorkerWakes(t *testing.T) {
	withProcs(t, 2, 2)
	For(2, 2, func(_, _ int) {})
	for c := range 3 {
		waitParked(t)
		before := runtime.NumGoroutine()
		workers := make([]atomic.Int32, 2)
		// Both items block until both are claimed, so worker 1 takes one.
		var arrived sync.WaitGroup
		arrived.Add(2)
		For(2, 2, func(w, _ int) {
			workers[w].Add(1)
			arrived.Done()
			arrived.Wait()
		})
		if workers[0].Load() != 1 || workers[1].Load() != 1 {
			t.Fatalf("call %d: items per worker %d, %d; want 1, 1", c, workers[0].Load(), workers[1].Load())
		}
		if now := runtime.NumGoroutine(); now > before {
			t.Fatalf("call %d: %d goroutines after waking a parked worker, %d before", c, now, before)
		}
	}
}

// TestForNestedWhileWorkersBusy: a For inside a For completes while every
// resident worker is busy on the outer call, and its calls run once.
func TestForNestedWhileWorkersBusy(t *testing.T) {
	withProcs(t, runtime.NumCPU(), 2)
	outer := resident() + 1
	For(outer, outer, func(_, _ int) {}) // fill the idle list
	if got := idleWorkers(); got != outer-1 {
		t.Fatalf("%d idle workers, want %d", got, outer-1)
	}
	const inner = 50
	runs := make([][inner]atomic.Int32, outer)
	var arrived, checked sync.WaitGroup
	arrived.Add(outer)
	checked.Add(outer)
	For(outer, outer, func(_, i int) {
		arrived.Done()
		arrived.Wait() // every worker holds an outer item
		if got := idleWorkers(); got != 0 {
			t.Errorf("outer item %d: %d idle workers while the outer call holds all", i, got)
		}
		checked.Done()
		checked.Wait() // an inner call's helper may then join the idle list
		For(2, inner, func(_, j int) { runs[i][j].Add(1) })
	})
	for i := range runs {
		for j := range runs[i] {
			if got := runs[i][j].Load(); got != 1 {
				t.Fatalf("outer %d inner %d ran %d times", i, j, got)
			}
		}
	}
}

// TestForShrinksWithGOMAXPROCS: lowering GOMAXPROCS between calls lets the
// idle workers beyond the new bound go at the next call, including those the
// call does not take (a host of three or more cores checks that), and they
// exit.
func TestForShrinksWithGOMAXPROCS(t *testing.T) {
	procs := runtime.NumCPU()
	withProcs(t, procs, 2)
	For(procs, procs, func(_, _ int) {}) // every helper joins the idle list
	if got := idleWorkers(); got != procs-1 {
		t.Fatalf("%d idle workers at GOMAXPROCS %d, want %d", got, procs, procs-1)
	}
	for _, lower := range []int{2, 1} {
		if lower >= procs {
			continue
		}
		before := runtime.NumGoroutine()
		runtime.GOMAXPROCS(lower)
		For(2, 4, func(_, _ int) {})
		if got := idleWorkers(); got != lower-1 {
			t.Fatalf("%d idle workers after a call at GOMAXPROCS %d, want %d", got, lower, lower-1)
		}
		for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() >= before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines 10 s after GOMAXPROCS fell to %d, %d before: no worker exited", runtime.NumGoroutine(), lower, before)
			}
		}
	}
}

// spin is about 2.5 ns of dependent integer work per round on a 2-vCPU Xeon.
func spin(rounds int) uint64 {
	x := uint64(rounds) | 1
	for range rounds {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

var sink atomic.Uint64

// BenchmarkFor times back-to-back calls of For over 16 items whose work
// totals about 50 µs and 500 µs on one core, at widths 1 and 2: the cost of
// getting a second core onto a short split.
func BenchmarkFor(b *testing.B) {
	const items = 16
	for _, split := range []struct {
		name   string
		rounds int // per item
	}{{"50us", 20_000 / items}, {"500us", 200_000 / items}} {
		for _, width := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/width%d", split.name, width), func(b *testing.B) {
				f := func(_, _ int) { sink.Add(spin(split.rounds)) }
				for range b.N {
					For(width, items, f)
				}
			})
		}
	}
}
