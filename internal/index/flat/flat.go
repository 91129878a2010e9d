// Package flat implements the exact brute-force index: every query scans all
// vectors. It is the accuracy baseline (recall 1.0 by construction) and the
// reference the paper's recall@10 numbers are measured against.
package flat

import (
	"svdbench/internal/index"
	"svdbench/internal/vec"
)

// Index is a brute-force scan over a vector matrix.
type Index struct {
	data   *vec.Matrix
	scorer *index.Scorer
	// ids maps matrix rows to external ids (nil means identity).
	ids []int32
}

// New creates a flat index over data. ids, when non-nil, maps rows to
// external ids.
func New(data *vec.Matrix, metric vec.Metric, ids []int32) *Index {
	return &Index{data: data, scorer: index.NewScorer(data, metric), ids: ids}
}

// Append adds one vector with its external id as the new last row: how a
// long-lived flat index serves as a collection's growing tail. The index
// must have been created with a non-nil (possibly empty) ids slice, and
// Append must not run concurrently with searches.
func (ix *Index) Append(v []float32, id int32) {
	if ix.ids == nil {
		panic("flat: Append to an index with identity ids")
	}
	ix.scorer.Append(v)
	ix.ids = append(ix.ids, id)
}

// Name implements index.Index.
func (ix *Index) Name() string { return "FLAT" }

// Metric implements index.Index.
func (ix *Index) Metric() vec.Metric { return ix.scorer.Metric() }

// Len implements index.Index.
func (ix *Index) Len() int { return ix.data.Len() }

// MemoryBytes implements index.SizeReporter.
func (ix *Index) MemoryBytes() int64 {
	return int64(ix.data.Len()) * int64(ix.data.Dim) * 4
}

// StorageBytes implements index.SizeReporter.
func (ix *Index) StorageBytes() int64 { return 0 }

// scanChunk is the row batch of the scan: the distance and gather buffers
// live in the scratch and each chunk is one batch-kernel call.
const scanChunk = 256

// Search implements index.Index with an exact scan.
func (ix *Index) Search(q []float32, k int, opts index.SearchOptions) index.Result {
	var r index.Result
	ix.SearchInto(q, k, opts, &r)
	return r
}

// SearchInto implements index.SearcherInto: the exact scan writing into a
// caller-owned Result. Rows are scored a chunk at a time through the
// scorer's batch kernels (bit-identical to per-row vec.Distance): an
// unfiltered chunk as one contiguous range, a filtered chunk by gathering the
// rows that pass. With a reused scratch and dst the steady-state path
// performs no allocations per query.
//
//annlint:hotpath
func (ix *Index) SearchInto(q []float32, k int, opts index.SearchOptions, dst *index.Result) {
	scr := index.ScratchFor(opts)
	heap := &scr.Bounded
	heap.Reset()
	n := ix.data.Len()
	comps := 0
	qs := ix.scorer.Query(q)
	scr.Dists = index.Grow(scr.Dists, scanChunk)
	for lo := 0; lo < n; lo += scanChunk {
		hi := min(lo+scanChunk, n)
		if opts.Filter == nil {
			dists := scr.Dists[:hi-lo]
			qs.DistRange(lo, dists)
			for i, d := range dists {
				heap.PushBounded(index.Neighbor{ID: ix.extID(lo + i), Dist: d}, k)
			}
			comps += hi - lo
			continue
		}
		scr.IDs = scr.IDs[:0]
		for row := lo; row < hi; row++ {
			if opts.Filter(ix.extID(row)) {
				scr.IDs = append(scr.IDs, int32(row))
			}
		}
		dists := scr.Dists[:len(scr.IDs)]
		qs.DistBatch(scr.IDs, dists)
		for i, row := range scr.IDs {
			heap.PushBounded(index.Neighbor{ID: ix.extID(int(row)), Dist: dists[i]}, k)
		}
		comps += len(scr.IDs)
	}
	stats := index.Stats{DistComps: comps}
	opts.Recorder.AddWork(index.Work{Dist: int32(comps), Heap: int32(comps), Dim: uint16(ix.data.Dim)})
	opts.Recorder.Flush()
	scr.Neighbors = heap.DrainAscending(scr.Neighbors[:0])
	index.ResultInto(scr.Neighbors, k, stats, dst)
}

func (ix *Index) extID(row int) int32 {
	if ix.ids != nil {
		return ix.ids[row]
	}
	return int32(row)
}

var _ index.Index = (*Index)(nil)
var _ index.SizeReporter = (*Index)(nil)
