//go:build go1.24

package par

import (
	"runtime"
	"testing"
	"weak"
)

// TestForHoldsNothingAfterReturn: once For returns, neither a polling nor a
// parked worker keeps what f captured alive.
func TestForHoldsNothingAfterReturn(t *testing.T) {
	withProcs(t, 2, 2)
	For(2, 2, func(_, _ int) {})
	for _, parked := range []bool{false, true} {
		p := captured()
		if parked {
			waitParked(t)
		}
		for range 3 {
			runtime.GC()
		}
		if p.Value() != nil {
			t.Errorf("worker parked %v: an object f captured is still reachable after For returned", parked)
		}
	}
}

// captured runs For with an f that captures a fresh object and returns a
// weak pointer to it.
//
//go:noinline
func captured() weak.Pointer[[64]int64] {
	obj := new([64]int64)
	For(2, len(obj), func(_, i int) { obj[i] = int64(i) })
	return weak.Make(obj)
}
