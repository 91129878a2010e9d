package index

import (
	"runtime"
	"slices"
	"testing"
)

// TestInsertBatchedContract: batches start at the given size and double to
// MaxInsertBatch; every plan of a batch sees the state the previous batch
// left; every worker is handed every item of a batch in item order, each
// with its own item's plan; each node is owned by exactly one shard, so a
// node's edits run in item order; one shard leads — at any worker count.
func TestInsertBatchedContract(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const nodes = 13
	// touches is the set of nodes item i edits: overlapping across items,
	// some items touching one node twice.
	touches := func(i int) []int32 { return []int32{int32(i % nodes), int32(i * 5 % nodes), int32(i % 3)} }
	for _, procs := range []int{1, 2, 4} {
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
			applied := 0            // written by the lead shard only
			edits := [nodes][]int{} // node → items that edited it, in edit order
			seen := make([][]int, procs)
			owners := [nodes]map[int]bool{}
			for node := range owners {
				owners[node] = map[int]bool{}
			}
			InsertBatched(tc.n, tc.batch,
				func(i int, scr *SearchScratch) [2]int {
					if scr == nil {
						t.Error("plan got no scratch")
					}
					return [2]int{i, applied}
				},
				func(i int, p [2]int, sh Shard) {
					if sh.Scr == nil {
						t.Error("apply got no scratch")
					}
					if p != [2]int{i, batchOf[i]} {
						t.Errorf("procs %d n %d: item %d got plan %v, want {%d %d} (planned against the start of its batch)", procs, tc.n, i, p, i, batchOf[i])
					}
					seen[sh.w] = append(seen[sh.w], i)
					for _, node := range touches(i) {
						if sh.Owns(node) {
							edits[node] = append(edits[node], i)
						}
					}
					if sh.Lead() {
						applied++
					}
				})
			if applied != tc.n {
				t.Errorf("procs %d: lead applied %d of %d items", procs, applied, tc.n)
			}
			for w, items := range seen {
				for k, i := range items {
					if i != k {
						t.Fatalf("procs %d n %d: shard %d saw item %d %dth", procs, tc.n, w, i, k)
					}
				}
				if len(items) != tc.n {
					t.Errorf("procs %d n %d: shard %d saw %d items", procs, tc.n, w, len(items))
				}
			}
			for node := range edits {
				var want []int
				for i := 0; i < tc.n; i++ {
					for _, nd := range touches(i) {
						if nd == int32(node) {
							want = append(want, i)
						}
					}
				}
				if !slices.Equal(edits[node], want) {
					t.Errorf("procs %d n %d: node %d edited by %v, want %v", procs, tc.n, node, edits[node], want)
				}
			}
			for w := 0; w < procs; w++ {
				sh := Shard{w: w, n: procs}
				for node := range owners {
					if sh.Owns(int32(node)) {
						owners[node][w] = true
					}
				}
			}
			for node, ws := range owners {
				if len(ws) != 1 {
					t.Errorf("procs %d: node %d owned by shards %v", procs, node, ws)
				}
			}
		}
	}
}
