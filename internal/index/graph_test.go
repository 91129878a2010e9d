package index

import (
	"math/rand"
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

// pruneCall is one score call Prune made: the candidate, the position of the
// first kept id scored, and the kept ids scored.
type pruneCall struct {
	c   int32
	lo  int
	ids []int32
}

// TestPruneContract runs Prune over random candidate lists and a random
// pair-distance table whose values, like the candidates' own distances, come
// from four levels, so ties between d(c, s) and c.Dist are common. Under
// both a strict and a non-strict occlusion rule it checks the kept ids and
// flags against the definition (a candidate is kept iff no earlier-kept one
// occludes it, until m are kept), the fresh slice's capacity, and every
// score call: each candidate scores the kept set selBatch ids at a time, in
// order, and stops after the first batch holding an occluder.
func TestPruneContract(t *testing.T) {
	const n = 40
	r := rand.New(rand.NewSource(3))
	var pair [n][n]float32
	for i := range pair {
		for j := range pair[i] {
			pair[i][j] = float32(r.Intn(4))
		}
	}
	scr := NewSearchScratch()
	for trial := 0; trial < 300; trial++ {
		cands := make([]Neighbor, 0, n)
		for _, id := range r.Perm(n)[:1+r.Intn(n-1)] {
			cands = append(cands, Neighbor{ID: int32(id), Dist: float32(r.Intn(4))})
		}
		SortNeighbors(cands)
		m := 1 + r.Intn(len(cands)+3)
		strict := trial%2 == 0
		occludes := func(d float32, c Neighbor) bool { return d < c.Dist || !strict && d == c.Dist }
		var calls []pruneCall
		got := Prune(scr, cands, m, nil,
			func(c int32, lo int, kept []int32, out []float32) {
				calls = append(calls, pruneCall{c, lo, slices.Clone(kept)})
				for i, s := range kept {
					out[i] = pair[c][s]
				}
			}, occludes)

		var want []int32
		var wantCalls []pruneCall
		for i, c := range cands {
			if len(want) == m {
				break
			}
			first := -1 // position of the first kept occluder
			for j, s := range want {
				if occludes(pair[c.ID][s], c) {
					first = j
					break
				}
			}
			last := len(want) // scored positions end here
			if first >= 0 {
				last = min(len(want), first/selBatch*selBatch+selBatch)
			}
			for lo := 0; lo < last; lo += selBatch {
				wantCalls = append(wantCalls, pruneCall{c.ID, lo, slices.Clone(want[lo:min(lo+selBatch, last)])})
			}
			if scr.Kept[i] != (first < 0) {
				t.Fatalf("trial %d: kept flag %d is %t", trial, i, scr.Kept[i])
			}
			if first < 0 {
				want = append(want, c.ID)
			}
		}
		if !slices.Equal(got, want) || cap(got) != m {
			t.Fatalf("trial %d (m %d, strict %t): kept %v (cap %d), want %v", trial, m, strict, got, cap(got), want)
		}
		if !slices.EqualFunc(calls, wantCalls, func(a, b pruneCall) bool {
			return a.c == b.c && a.lo == b.lo && slices.Equal(a.ids, b.ids)
		}) {
			t.Fatalf("trial %d (m %d, strict %t): score calls\n got %v\nwant %v", trial, m, strict, calls, wantCalls)
		}
	}
}

// TestRelink: a list that already holds the target comes back as it was; a
// list that stays within over just grows; a list that outgrows over is
// re-scored in one call and handed to prune sorted by (Dist, ID), with m.
func TestRelink(t *testing.T) {
	scr := NewSearchScratch()
	dist := func(ids []int32, out []float32) {
		for i, id := range ids {
			out[i] = float32(id % 3)
		}
	}
	noPrune := func([]Neighbor, int) []int32 { t.Fatal("pruned a list within its bound"); return nil }
	list := []int32{7, 5}
	if got := Relink(scr, list, 5, 2, 2, nil, dist, noPrune); !slices.Equal(got, list) {
		t.Fatalf("duplicate target changed the list to %v", got)
	}
	list = Relink(scr, list, 4, 3, 2, nil, dist, noPrune)
	if !slices.Equal(list, []int32{7, 5, 4}) {
		t.Fatalf("append within bound gave %v", list)
	}
	var pruned []Neighbor
	got := Relink(scr, list, 6, 3, 2, nil, dist, func(cands []Neighbor, m int) []int32 {
		pruned = slices.Clone(cands)
		if m != 2 {
			t.Errorf("prune got m %d, want 2", m)
		}
		return []int32{6, 4}
	})
	want := []Neighbor{{ID: 6, Dist: 0}, {ID: 4, Dist: 1}, {ID: 7, Dist: 1}, {ID: 5, Dist: 2}}
	if !slices.Equal(pruned, want) || !slices.Equal(got, []int32{6, 4}) {
		t.Fatalf("overflow pruned %v into %v, want %v into [6 4]", pruned, got, want)
	}
}

// TestPruneMemo drives one node's list through a few hundred reverse edges
// twice, with and without a PruneMemo, under an HNSW-style prune (strict
// rule, positional back-fill to the cap). Pair distances form an asymmetric
// table of four levels, so an orientation mix-up or a stale pair shows as a
// different list; the node's distances tie as often. The memoised lists
// must equal the fresh ones at every step, each re-prune past the first
// must score one id from the node, and the memo must score fewer pairs.
func TestPruneMemo(t *testing.T) {
	const n = 48
	r := rand.New(rand.NewSource(5))
	var pair [n][n]float32
	var dist [n]float32
	for i := range pair {
		dist[i] = float32(r.Intn(4))
		for j := range pair[i] {
			pair[i][j] = float32(r.Intn(4))
		}
	}
	rescore := func(ids []int32, out []float32) {
		for i, id := range ids {
			out[i] = dist[id]
		}
	}
	for _, m := range []int{2, 3, 5, 8, 13} {
		var memo PruneMemo
		scored := [2]int{}
		prune := func(scr *SearchScratch, memo *PruneMemo, side int) func([]Neighbor, int) []int32 {
			return func(cands []Neighbor, m int) []int32 {
				sel := Prune(scr, cands, m, memo,
					func(c int32, _ int, kept []int32, out []float32) {
						scored[side] += len(kept)
						for i, s := range kept {
							out[i] = pair[c][s]
						}
					},
					func(d float32, c Neighbor) bool { return d < c.Dist })
				if extra := m - len(sel); extra > 0 {
					sel = sel[:0]
					for i, c := range cands {
						if !scr.Kept[i] {
							if extra == 0 {
								continue
							}
							extra--
						}
						sel = append(sel, c.ID)
					}
				}
				return sel
			}
		}
		scr, refScr := NewSearchScratch(), NewSearchScratch()
		var got, want []int32
		for step := 0; step < 300; step++ {
			target := int32(r.Intn(n))
			calls := 0
			got = Relink(scr, got, target, m, m, &memo, func(ids []int32, out []float32) {
				calls++
				if memo.ids != nil && len(ids) != 1 {
					t.Fatalf("m %d step %d: memoised re-prune re-scored %d ids", m, step, len(ids))
				}
				rescore(ids, out)
			}, prune(scr, &memo, 0))
			want = Relink(refScr, want, target, m, m, nil, rescore, prune(refScr, nil, 1))
			if !slices.Equal(got, want) {
				t.Fatalf("m %d step %d: memoised list %v, fresh %v", m, step, got, want)
			}
		}
		if scored[0] >= scored[1] {
			t.Errorf("m %d: the memo scored %d pairs, fresh re-prunes %d", m, scored[0], scored[1])
		}
		t.Logf("m %d: %d pairs scored with the memo, %d without", m, scored[0], scored[1])
	}
}
