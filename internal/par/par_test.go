package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

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
// worker 0's, in ascending order, on the caller: no goroutine is started.
func TestForWidthOneIsAscendingLoop(t *testing.T) {
	for _, width := range []int{-1, 0, 1} {
		var order []int
		before := runtime.NumGoroutine()
		For(width, 9, func(w, i int) {
			if w != 0 {
				t.Errorf("width %d: call %d on worker %d", width, i, w)
			}
			if now := runtime.NumGoroutine(); now != before {
				t.Errorf("width %d: %d goroutines during call %d, %d before the loop", width, now, i, before)
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
