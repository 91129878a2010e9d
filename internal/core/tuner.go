package core

import (
	"context"
	"fmt"

	"svdbench/internal/dataset"
	"svdbench/internal/index"
	"svdbench/internal/vdb"
)

// TargetRecall is the paper's tuning goal: recall@10 ≥ 0.9 (Sec. III-C).
const TargetRecall = 0.9

// tuneSampleQueries caps the query subset used during parameter tuning.
const tuneSampleQueries = 200

// tune determines the stack's search-time parameters following the paper's
// Table II procedure:
//
//   - IVF_FLAT: nlist = 4·√n (applied at build time), nprobe tuned to the
//     recall target.
//   - IVF_PQ (LanceDB): reuses the nprobe tuned for Milvus-IVF on the same
//     dataset; the achieved (lower) recall is reported, as in the paper's
//     parenthesised accuracy column.
//   - HNSW: efSearch tuned on Milvus and reused by Qdrant/Weaviate.
//   - HNSW_SQ (LanceDB): efSearch tuned separately (the paper's
//     "efSearch (LanceDB)" column) because quantisation costs accuracy.
//   - DiskANN: search_list fixed at its minimum (10) because it already
//     exceeds the target there (Tab. II), beam_width 4.
func (b *Bench) tune(ctx context.Context, st *Stack) error {
	switch st.Setup.Index {
	case vdb.IndexIVFFlat:
		np := b.tuneNProbe(st)
		st.Opts = index.SearchOptions{NProbe: np}
	case vdb.IndexIVFPQ:
		milvus, err := b.StackContext(ctx, st.DatasetName, vdb.Setup{Engine: vdb.Milvus(), Index: vdb.IndexIVFFlat})
		if err != nil {
			return fmt.Errorf("tune %s: need milvus IVF params: %w", st.Setup.Label(), err)
		}
		st.Opts = index.SearchOptions{NProbe: milvus.Opts.NProbe}
	case vdb.IndexHNSW:
		if st.Setup.Engine.Name == "milvus" {
			st.Opts = index.SearchOptions{EfSearch: b.tuneEf(st)}
			return nil
		}
		milvus, err := b.StackContext(ctx, st.DatasetName, vdb.Setup{Engine: vdb.Milvus(), Index: vdb.IndexHNSW})
		if err != nil {
			return fmt.Errorf("tune %s: need milvus HNSW params: %w", st.Setup.Label(), err)
		}
		st.Opts = index.SearchOptions{EfSearch: milvus.Opts.EfSearch}
	case vdb.IndexHNSWSQ:
		st.Opts = index.SearchOptions{EfSearch: b.tuneEf(st)}
	case vdb.IndexDiskANN:
		// The paper tunes search_list to the recall target and finds the
		// minimum value (10) already exceeds it (Tab. II); we follow the
		// same procedure with the same floor.
		L := tuneUp(10, 512, func(v int) float64 {
			return tuneRecall(st, index.SearchOptions{SearchList: v, BeamWidth: 4})
		})
		st.Opts = index.SearchOptions{SearchList: L, BeamWidth: 4}
	default:
		return fmt.Errorf("tune: %w: unknown index kind %q", vdb.ErrBadParams, st.Setup.Index)
	}
	return nil
}

// tuneRecall measures recall@10 at the given options over the tuning sample.
func tuneRecall(st *Stack, opts index.SearchOptions) float64 {
	ds := st.Dataset
	n := ds.Queries.Len()
	if n > tuneSampleQueries {
		n = tuneSampleQueries
	}
	results := make([][]int32, n)
	for qi := 0; qi < n; qi++ {
		results[qi] = st.Col.Search(ds.Queries.Row(qi), PaperK, opts).IDs
	}
	return dataset.MeanRecallAtK(results, ds.GroundTruth[:n], PaperK)
}

// tuneNProbe finds the smallest nprobe reaching the recall target.
func (b *Bench) tuneNProbe(st *Stack) int {
	maxProbe := 1
	for _, seg := range st.Col.Segments() {
		type nlister interface{ NList() int }
		if nl, ok := seg.Index.(nlister); ok && nl.NList() > maxProbe {
			maxProbe = nl.NList()
		}
	}
	return tuneUp(1, maxProbe, func(v int) float64 {
		return tuneRecall(st, index.SearchOptions{NProbe: v})
	})
}

// tuneEf finds the smallest efSearch reaching the recall target.
func (b *Bench) tuneEf(st *Stack) int {
	return tuneUp(PaperK, 4096, func(v int) float64 {
		return tuneRecall(st, index.SearchOptions{EfSearch: v})
	})
}

// tuneUp finds the minimal parameter value in [lo, hi] whose recall meets
// TargetRecall, by exponential probing followed by binary refinement.
// Recall is treated as monotone non-decreasing in the parameter (true for
// nprobe and efSearch up to noise). If even hi misses the target, hi is
// returned, mirroring the paper's LanceDB-IVF case where the target is
// unreachable and the achieved accuracy is simply reported.
func tuneUp(lo, hi int, eval func(int) float64) int {
	return tuneUpTo(lo, hi, TargetRecall, eval)
}

// tuneUpTo is tuneUp against an arbitrary recall target, used when an
// experiment matches a previously-achieved recall instead of the paper's
// fixed 0.9 goal (e.g. the layout experiment's equal-recall comparison).
func tuneUpTo(lo, hi int, target float64, eval func(int) float64) int {
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	// Exponential probe for the first passing value.
	pass := -1
	prev := lo - 1
	for v := lo; ; v *= 2 {
		if v > hi {
			v = hi
		}
		if eval(v) >= target {
			pass = v
			break
		}
		prev = v
		if v == hi {
			break
		}
	}
	if pass < 0 {
		return hi
	}
	// Binary refine in (prev, pass].
	loB, hiB := prev+1, pass
	for loB < hiB {
		mid := (loB + hiB) / 2
		if eval(mid) >= target {
			hiB = mid
		} else {
			loB = mid + 1
		}
	}
	return hiB
}
