package index

import (
	"runtime"
	"testing"
)

// TestInsertBatchedContract: batches start at the given size and double to
// MaxInsertBatch; every plan of a batch sees the state the previous batch
// left; applies run alone, in item order, each with its own item's plan — at
// any worker count.
func TestInsertBatchedContract(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range []struct {
			n, batch int
			starts   []int // first item of each batch
		}{
			{n: 0, batch: 1},
			{n: 1, batch: 1, starts: []int{0}},
			{n: 200, batch: 1, starts: []int{0, 1, 3, 7, 15, 31, 63, 127, 191}},
			{n: 150, batch: MaxInsertBatch, starts: []int{0, 64, 128}},
		} {
			batchOf := make([]int, tc.n)
			for b, lo := range tc.starts {
				for i := lo; i < tc.n; i++ {
					batchOf[i] = tc.starts[b]
				}
			}
			applied := 0
			InsertBatched(tc.n, tc.batch,
				func(i int, scr *SearchScratch) [2]int {
					if scr == nil {
						t.Error("plan got no scratch")
					}
					return [2]int{i, applied}
				},
				func(i int, p [2]int) {
					if i != applied {
						t.Errorf("procs %d n %d: apply(%d) ran %dth", procs, tc.n, i, applied)
					}
					if p != [2]int{i, batchOf[i]} {
						t.Errorf("procs %d n %d: item %d got plan %v, want {%d %d} (planned against the start of its batch)", procs, tc.n, i, p, i, batchOf[i])
					}
					applied++
				})
			if applied != tc.n {
				t.Errorf("procs %d: applied %d of %d items", procs, applied, tc.n)
			}
		}
	}
}
