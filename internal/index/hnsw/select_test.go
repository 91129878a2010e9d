package hnsw

import (
	"math/rand"
	"slices"
	"testing"

	"svdbench/internal/index"
	"svdbench/internal/vec"
)

// refSelBatch is the batch size of the reference selection below.
const refSelBatch = 4

// refSelectHeuristic is HNSW's neighbour selection as this package wrote it
// before the shared kernel (index.Prune): its own per-candidate loop over
// refOccluded, kept codes decoded into lanes as they are kept, and a back-fill
// that re-sorts. Kept verbatim, apart from names, as the reference
// selectNeighbors is compared against.
func (ix *Index) refSelectHeuristic(cands []index.Neighbor, m int, scr *index.SearchScratch) []index.Neighbor {
	out := make([]index.Neighbor, 0, m)
	if cap(scr.Kept) < len(cands) {
		scr.Kept = make([]bool, len(cands))
	}
	kept := scr.Kept[:len(cands)]
	clear(kept)
	if n := vec.LaneBlockLen(m, ix.data.Dim); ix.quantizer != nil && len(scr.Lanes) < n {
		scr.Lanes = make([]float32, n)
	}
	refGrowDists(scr, refSelBatch)
	dists := scr.Dists[:refSelBatch]
	keptIDs := scr.IDs[:0]
	for i, c := range cands {
		if len(out) >= m {
			break
		}
		if ix.refOccluded(c, keptIDs, dists, scr.Lanes) {
			continue
		}
		if ix.quantizer != nil {
			ix.quantizer.DecodeLane(scr.Lanes, len(out), ix.codes, int(c.ID))
		}
		kept[i] = true
		keptIDs = append(keptIDs, c.ID)
		out = append(out, c)
	}
	scr.IDs = keptIDs
	// Backfill with the closest remaining candidates if the heuristic was
	// too aggressive (keeps graphs connected on clustered data).
	if len(out) < m {
		for i, c := range cands {
			if len(out) >= m {
				break
			}
			if !kept[i] {
				out = append(out, c)
			}
		}
		index.SortNeighbors(out)
	}
	return out
}

// refOccluded reports whether some kept neighbour s is closer to candidate c
// than the query is, d(c, s) < c.Dist, with c as the scoring side: exact
// distances through c's DistBatch, or c's full vector against the kept codes
// decoded into lanes. It scores refSelBatch kept neighbours per call and
// stops after the first batch that occludes c.
func (ix *Index) refOccluded(c index.Neighbor, kept []int32, dists, lanes []float32) bool {
	cq := ix.rowQuery(c.ID)
	for b := 0; b < len(kept); b += refSelBatch {
		e := min(b+refSelBatch, len(kept))
		ds := dists[:e-b]
		if ix.quantizer != nil {
			vec.L2SqLanes(cq.Vector(), lanes[b*ix.data.Dim:vec.LaneBlockLen(e, ix.data.Dim)], ds)
		} else {
			cq.DistBatch(kept[b:e], ds)
		}
		for _, d := range ds {
			if d < c.Dist {
				return true
			}
		}
	}
	return false
}

// refGrowDists makes scr.Dists hold at least n distances.
func refGrowDists(scr *index.SearchScratch, n int) {
	if cap(scr.Dists) < n {
		scr.Dists = make([]float32, n)
	}
}

// TestSelectNeighborsMatchesReference: over random candidate lists the shared
// kernel plus the positional back-fill selects exactly the ids, in the order,
// of the reference loop — exact and SQ, every metric, m from 1 to past the
// list's length. Rows are drawn from a few distinct vectors and the
// candidates' distances from four values that are themselves pair distances
// of the data, so candidates tie with each other and d(c, s) ties c.Dist.
// Each side reuses one scratch throughout, so stale lanes and flags from the
// previous call are in place every time.
func TestSelectNeighborsMatchesReference(t *testing.T) {
	const n, dim = 48, 13
	r := rand.New(rand.NewSource(9))
	vocab := vec.NewMatrix(6, dim)
	for i := range vocab.Raw() {
		vocab.Raw()[i] = float32(r.NormFloat64())
	}
	data := vec.NewMatrix(n, dim)
	for i := 0; i < n; i++ {
		data.SetRow(i, vocab.Row(r.Intn(vocab.Len())))
		vec.Scale(data.Row(i), 1+float32(i%3)/2)
	}
	scr, refScr := index.NewSearchScratch(), index.NewSearchScratch()
	for _, metric := range []vec.Metric{vec.L2, vec.IP, vec.Cosine} {
		for _, quantize := range []bool{false, true} {
			ix, err := Build(data, nil, Config{M: 4, EfConstruction: 8, Seed: 1, Metric: metric, ScalarQuantize: quantize})
			if err != nil {
				t.Fatal(err)
			}
			pair := func(i, j int) float32 { return ix.rowQuery(int32(i)).Dist(j) }
			if quantize {
				pair = func(i, j int) float32 { return ix.quantizer.DistanceAt(ix.data.Row(i), ix.codes, j) }
			}
			var levels [4]float32
			for k := range levels {
				levels[k] = pair(r.Intn(n), r.Intn(n))
			}
			for trial := 0; trial < 60; trial++ {
				size := 2 + r.Intn(30)
				cands := make([]index.Neighbor, size)
				for k, id := range r.Perm(n)[:size] {
					cands[k] = index.Neighbor{ID: int32(id), Dist: levels[r.Intn(len(levels))]}
				}
				index.SortNeighbors(cands)
				for _, m := range []int{1, 2, size - 1, size, size + 3} {
					var want []int32
					for _, nb := range ix.refSelectHeuristic(slices.Clone(cands), m, refScr) {
						want = append(want, nb.ID)
					}
					if got := ix.selectNeighbors(slices.Clone(cands), m, nil, scr); !slices.Equal(got, want) {
						t.Fatalf("%v sq=%t trial %d m %d: selected %v, want %v\ncandidates %v", metric, quantize, trial, m, got, want, cands)
					}
				}
			}
		}
	}
}
