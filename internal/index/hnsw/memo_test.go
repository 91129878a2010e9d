package hnsw

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"svdbench/internal/index"
	"svdbench/internal/vec"
)

// refApply is applyInsert with every overflowing reverse edge re-scored and
// re-pruned from scratch, the way linkBack did before index.PruneMemo: each
// listed id scored from the node by the scalar distance, a full sort, then
// refSelectHeuristic. It runs every edit itself, so it belongs on one shard.
func (ix *Index) refApply(row int32, selected [][]int32, scr *index.SearchScratch) {
	level := ix.levels[row]
	ix.links[row] = make([][]int32, level+1)
	copy(ix.links[row], selected)
	for l := len(selected) - 1; l >= 0; l-- {
		for _, nb := range selected[l] {
			list := append(ix.links[nb][l], row)
			if limit := ix.maxDegree(l); len(list) > limit {
				cands := make([]index.Neighbor, len(list))
				for i, id := range list {
					d := ix.rowQuery(nb).Dist(int(id))
					if ix.quantizer != nil {
						d = ix.quantizer.DistanceAt(ix.data.Row(int(nb)), ix.codes, int(id))
					}
					cands[i] = index.Neighbor{ID: id, Dist: d}
				}
				index.SortNeighbors(cands)
				list = list[:0]
				for _, c := range ix.refSelectHeuristic(cands, limit, scr) {
					list = append(list, c.ID)
				}
			}
			ix.links[nb][l] = list
		}
	}
	if level > ix.maxLevel {
		ix.maxLevel = level
		ix.entry = row
	}
}

// FuzzRepruneMemo builds a fuzz-chosen graph twice — with Build, whose
// re-prunes reuse each node's index.PruneMemo, and with refApply, which
// re-prunes every overflow from scratch — and requires the same snapshot
// bytes. The bytes pick n ≤ 96 rows, the dimension (1 to 16, with and
// without a d%4 tail), M from 2 to 8, efConstruction, the metric, SQ on or
// off, and how many distinct vectors the rows repeat (exact ties), and seed
// the vectors themselves.
func FuzzRepruneMemo(f *testing.F) {
	for _, seed := range [][]byte{
		{88, 12, 2, 0, 95, 7, 1, 2, 3},
		{95, 7, 6, 5, 9, 1, 40, 2, 7},
		{70, 15, 0, 2, 30, 4, 9, 9, 9},
		{60, 3, 4, 4, 2, 0, 5, 1, 1},
		{96, 11, 1, 1, 12, 31, 3, 3, 8},
		[]byte("021700"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 6 {
			return
		}
		n, dim := 8+int(b[0])%89, 1+int(b[1])%16
		m := 2 + int(b[2])%7
		metric := []vec.Metric{vec.L2, vec.IP, vec.Cosine}[int(b[3])%3]
		distinct := 1 + int(b[4])%n
		var seed [8]byte
		copy(seed[:], b[6:])
		r := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(seed[:]))))
		vocab := vec.NewMatrix(distinct, dim)
		for i := range vocab.Raw() {
			vocab.Raw()[i] = float32(r.Intn(17) - 8)
		}
		data := vec.NewMatrix(n, dim)
		for i := 0; i < n; i++ {
			data.SetRow(i, vocab.Row(r.Intn(distinct)))
		}
		cfg := Config{M: m, EfConstruction: m + int(b[5])%24, Metric: metric, Seed: int64(b[5]), ScalarQuantize: b[3]&4 != 0}
		built, err := Build(data, nil, cfg)
		if err != nil {
			return
		}
		ref := &Index{
			cfg: built.cfg, data: built.data, levels: built.levels, mult: built.mult,
			links: make([][][]int32, n), entry: -1, maxLevel: -1,
			scorer: built.scorer, quantizer: built.quantizer, codes: built.codes,
		}
		index.InsertBatched(n, 1,
			func(i int, scr *index.SearchScratch) [][]int32 { return ref.planInsert(int32(i), scr) },
			func(i int, selected [][]int32, sh index.Shard) {
				if sh.Lead() {
					ref.refApply(int32(i), selected, sh.Scr)
				}
			})
		if !bytes.Equal(persistBytes(t, built), persistBytes(t, ref)) {
			t.Fatalf("n %d dim %d M %d %v sq=%t distinct %d: memoised build differs from the from-scratch reference",
				n, dim, m, metric, cfg.ScalarQuantize, distinct)
		}
	})
}
