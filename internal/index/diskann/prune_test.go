package diskann

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"svdbench/internal/index"
	"svdbench/internal/vec"
)

// refRobustPruneCands is RobustPrune as this package wrote it before the
// shared kernel (index.Prune): the star form, where each kept star scores
// every candidate still alive behind it in one DistBatch and drops the ones
// it occludes, keeping at most cfg.R. Kept verbatim, apart from its name, as
// the reference robustPrune is compared against.
func (ix *Index) refRobustPruneCands(p int32, cands []index.Neighbor, alpha float64, scr *index.SearchScratch) []int32 {
	alpha = ix.occlusionAlpha(alpha)
	if len(cands) > maxOcclusion {
		cands = cands[:maxOcclusion]
	}
	if cap(scr.IDs) < len(cands) {
		scr.IDs = make([]int32, len(cands))
	}
	if cap(scr.Dists) < len(cands) {
		scr.Dists = make([]float32, len(cands))
	}
	out := make([]int32, 0, ix.cfg.R)
	for len(cands) > 0 {
		star := cands[0]
		cands = cands[1:]
		if star.ID == p {
			continue
		}
		out = append(out, star.ID)
		if len(out) == ix.cfg.R {
			break
		}
		ids, dists := scr.IDs[:len(cands)], scr.Dists[:len(cands)]
		for j, c := range cands {
			ids[j] = c.ID
		}
		ix.scorer.QueryRow(int(star.ID)).DistBatch(ids, dists)
		alive := cands[:0]
		for j, c := range cands {
			// Occluded when alpha·d(star, c) <= d(p, c); the negated form
			// keeps a NaN distance alive, where > would drop it.
			if !(alpha*float64(dists[j]) <= float64(c.Dist)) {
				alive = append(alive, c)
			}
		}
		cands = alive
	}
	return out
}

// TestRobustPruneMatchesReference: over random candidate lists of a node p the
// shared kernel keeps exactly the ids, in the order, of the star-form loop —
// every metric, alpha 1 and 1.2, m from 1 to past the list's length — though
// it scores each pair from the other side. A third of the rows duplicate
// their predecessor and the candidates' distances are drawn from four values
// that are themselves pair distances (scaled by alpha², for IP by alpha), so
// candidates tie with each other and the occlusion test meets equality;
// every other list carries one NaN distance, which must stay alive.
func TestRobustPruneMatchesReference(t *testing.T) {
	const n = 48
	r := rand.New(rand.NewSource(4))
	scr, refScr := index.NewSearchScratch(), index.NewSearchScratch()
	for _, metric := range []vec.Metric{vec.L2, vec.IP, vec.Cosine} {
		ix := randomGraphIndex(r, n, 13, 2, metric)
		for _, alpha := range []float64{1, 1.2} {
			var levels [4]float32
			for k := range levels {
				levels[k] = float32(ix.occlusionAlpha(alpha) * float64(ix.scorer.QueryRow(r.Intn(n)).Dist(r.Intn(n))))
			}
			for trial := 0; trial < 60; trial++ {
				size := 2 + r.Intn(30)
				perm := r.Perm(n)
				p, ids := int32(perm[0]), perm[1:size+1]
				cands := make([]index.Neighbor, size)
				for k, id := range ids {
					cands[k] = index.Neighbor{ID: int32(id), Dist: levels[r.Intn(len(levels))]}
				}
				if trial%2 == 1 {
					cands[r.Intn(size)].Dist = float32(math.NaN())
				}
				index.SortNeighbors(cands)
				for _, m := range []int{1, 2, size - 1, size, size + 3} {
					ix.cfg.R = m
					want := ix.refRobustPruneCands(p, slices.Clone(cands), alpha, refScr)
					if got := ix.robustPrune(alpha, scr)(slices.Clone(cands), m); !slices.Equal(got, want) {
						t.Fatalf("%v alpha %v trial %d m %d: kept %v, want %v\ncandidates %v", metric, alpha, trial, m, got, want, cands)
					}
				}
			}
		}
	}
}
