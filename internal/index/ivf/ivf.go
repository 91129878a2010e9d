// Package ivf implements the inverted-file (cluster-based) index family of
// the paper's Sec. II-B: vectors are k-means clustered into nlist cells; a
// query compares against all centroids, picks the nprobe closest cells, and
// scans their members exhaustively.
//
// Two variants are provided, matching the benchmarked systems:
//
//   - IVF_FLAT (memory-based, Milvus): cells hold full-precision vectors in
//     memory.
//   - IVF_PQ (storage-based, LanceDB): cells hold product-quantised codes in
//     cluster-contiguous storage pages; probing a cell reads its pages from
//     the device, and scoring uses the ADC table (no re-ranking, which is why
//     the paper's LanceDB-IVF accuracy tops out at 0.64–0.73, Tab. II).
package ivf

import (
	"fmt"
	"math"

	"svdbench/internal/index"
	"svdbench/internal/index/kmeans"
	"svdbench/internal/index/pq"
	"svdbench/internal/vec"
)

// Config controls index construction.
type Config struct {
	// NList is the number of clusters; the paper follows the faiss rule
	// nlist = 4·√n (Sec. III-C). Zero applies that rule.
	NList int
	// Metric is the query distance.
	Metric vec.Metric
	// Seed drives k-means.
	Seed int64
	// PQ enables the product-quantised storage variant with PQM
	// sub-quantizers (pq.DefaultM when zero).
	PQ  bool
	PQM int
	// PageSize is the storage page size for the PQ variant (4096 when
	// zero).
	PageSize int
}

// DefaultNList returns the faiss-recommended 4·√n used throughout the paper.
func DefaultNList(n int) int {
	if n <= 0 {
		return 1
	}
	return int(4 * math.Sqrt(float64(n)))
}

// Index is a built IVF index.
type Index struct {
	cfg       Config
	data      *vec.Matrix
	ids       []int32
	centroids *vec.Matrix
	lists     [][]int32     // row indexes per cell
	scorer    *index.Scorer // full-precision scoring (IVF_FLAT cell scans)

	// PQ variant state.
	quantizer *pq.Quantizer
	codes     []byte    // packed n×m codes, indexed by row
	listPages [][]int64 // storage pages per cell
	codeBytes int64
}

// Build clusters data and constructs the index. ids, when non-nil, maps rows
// to external ids.
func Build(data *vec.Matrix, ids []int32, cfg Config) (*Index, error) {
	n := data.Len()
	if n == 0 {
		return nil, fmt.Errorf("ivf: empty data")
	}
	if cfg.NList <= 0 {
		cfg.NList = DefaultNList(n)
	}
	if cfg.NList > n {
		cfg.NList = n
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = 4096
	}
	res := kmeans.Run(data, kmeans.Config{K: cfg.NList, Seed: cfg.Seed, MaxIter: 12})
	ix := &Index{
		cfg:       cfg,
		data:      data,
		ids:       ids,
		centroids: res.Centroids,
		lists:     make([][]int32, res.Centroids.Len()),
		scorer:    index.NewScorer(data, cfg.Metric),
	}
	for row, c := range res.Assign {
		ix.lists[c] = append(ix.lists[c], int32(row))
	}
	if cfg.PQ {
		m := cfg.PQM
		if m <= 0 {
			m = pq.DefaultM(data.Dim)
		}
		q, err := pq.Train(data, m, cfg.Seed+1)
		if err != nil {
			return nil, fmt.Errorf("ivf: train pq: %w", err)
		}
		ix.quantizer = q
		ix.codes = q.EncodeAll(data)
	}
	return ix, nil
}

// AssignPages lays the PQ posting lists out on storage, allocating
// cluster-contiguous pages from alloc (typically ssd.Device.Alloc). It must
// be called once before searching the PQ variant under an engine that issues
// I/O.
func (ix *Index) AssignPages(alloc func(npages int64) int64) {
	if ix.quantizer == nil {
		return
	}
	entry := ix.entryBytes()
	ix.listPages = make([][]int64, len(ix.lists))
	for c, list := range ix.lists {
		bytes := int64(len(list)) * entry
		npages := (bytes + int64(ix.cfg.PageSize) - 1) / int64(ix.cfg.PageSize)
		if npages == 0 {
			continue
		}
		first := alloc(npages)
		pages := make([]int64, npages)
		for i := range pages {
			pages[i] = first + int64(i)
		}
		ix.listPages[c] = pages
		ix.codeBytes += npages * int64(ix.cfg.PageSize)
	}
}

// entryBytes is the storage footprint of one posting-list entry: the PQ code
// plus an 8-byte row id.
func (ix *Index) entryBytes() int64 { return int64(ix.quantizer.M()) + 8 }

// Name implements index.Index.
func (ix *Index) Name() string {
	if ix.cfg.PQ {
		return "IVF_PQ"
	}
	return "IVF_FLAT"
}

// Metric implements index.Index.
func (ix *Index) Metric() vec.Metric { return ix.cfg.Metric }

// Len implements index.Index.
func (ix *Index) Len() int { return ix.data.Len() }

// NList returns the number of cells.
func (ix *Index) NList() int { return len(ix.lists) }

// MemoryBytes implements index.SizeReporter.
func (ix *Index) MemoryBytes() int64 {
	mem := int64(ix.centroids.Len()) * int64(ix.centroids.Dim) * 4
	if ix.cfg.PQ {
		mem += ix.quantizer.MemoryBytes()
		return mem
	}
	mem += int64(ix.data.Len()) * int64(ix.data.Dim) * 4
	return mem
}

// StorageBytes implements index.SizeReporter.
func (ix *Index) StorageBytes() int64 { return ix.codeBytes }

// Search implements index.Index.
func (ix *Index) Search(q []float32, k int, opts index.SearchOptions) index.Result {
	var r index.Result
	ix.SearchInto(q, k, opts, &r)
	return r
}

// SearchInto implements index.SearcherInto: coarse quantisation against
// every centroid, then an exhaustive scan of the nprobe closest cells,
// writing into a caller-owned Result. Probe order, distance buffers, the ADC
// table and the result heap all live in the scratch, so with a reused
// scratch and dst the steady-state path performs no allocations per query.
//
//annlint:hotpath
func (ix *Index) SearchInto(q []float32, k int, opts index.SearchOptions, dst *index.Result) {
	scr := index.ScratchFor(opts)
	nprobe := opts.NProbe
	if nprobe <= 0 {
		nprobe = 1
	}
	rec := opts.Recorder
	// Coarse quantisation: compare against every centroid.
	nc := ix.centroids.Len()
	scr.Dists = index.Grow(scr.Dists, nc)
	scr.Cells = index.Grow(scr.Cells, nc)
	cells := kmeans.NearestN(ix.centroids, q, nprobe, scr.Dists, scr.Cells)
	stats := index.Stats{DistComps: nc}
	rec.AddWork(index.Work{Dist: int32(nc), Dim: uint16(ix.data.Dim)})

	heap := &scr.Bounded
	heap.Reset()
	ix.scan(q, k, cells, opts, scr, &stats)
	rec.Flush()
	scr.Neighbors = heap.DrainAscending(scr.Neighbors[:0])
	index.ResultInto(scr.Neighbors, k, stats, dst)
}

// scan scores the probed cells: IVF_FLAT at full precision, IVF_PQ by ADC
// after reading each cell's posting-list pages. The rows that pass the
// filter are gathered across all probed cells (cell order, then list order)
// and scored in one batch — one DistBatch, or one four-codes-per-pass
// DistanceRows — because cells average a handful of rows, so per-cell
// batches would be mostly remainder. They are then pushed in gathered order:
// the same distances and heap-operation sequence as scoring row by row,
// while each cell's I/O and CPU steps are still recorded cell by cell.
func (ix *Index) scan(q []float32, k int, cells []int, opts index.SearchOptions, scr *index.SearchScratch, stats *index.Stats) {
	rec := opts.Recorder
	dim := uint16(ix.data.Dim)
	m := 0
	if ix.cfg.PQ {
		scr.Table = ix.quantizer.BuildTableInto(q, scr.Table)
		// Table construction scans all sub-space centroids once.
		rec.AddWork(index.Work{Dist: 256/4 + 1, Dim: dim})
		m = ix.quantizer.M()
	}
	scr.IDs = scr.IDs[:0]
	for _, c := range cells {
		list := ix.lists[c]
		// Posting list I/O (IVF_PQ only): the cell's pages are read as one
		// sequential request before scanning.
		if ix.listPages != nil && len(ix.listPages[c]) > 0 {
			rec.AddContiguousIO(ix.listPages[c])
			stats.PagesRead += len(ix.listPages[c])
		}
		for _, row := range list {
			if opts.Filter == nil || opts.Filter(ix.extID(row)) {
				scr.IDs = append(scr.IDs, row)
			}
		}
		w := index.Work{Heap: int32(len(list))}
		if ix.cfg.PQ {
			w.ADC, w.M = w.Heap, uint16(m)
		} else {
			w.Dist, w.Dim = w.Heap, dim
		}
		rec.AddWork(w)
	}
	// cells aliases scr.Cells, not scr.Dists: the centroid distances are
	// spent, so the buffer is free for the row distances.
	scr.Dists = index.Grow(scr.Dists, len(scr.IDs))
	dists := scr.Dists
	if ix.cfg.PQ {
		pq.Table(scr.Table).DistanceRows(ix.codes, m, scr.IDs, dists)
		stats.PQComps += len(scr.IDs)
	} else {
		ix.scorer.Query(q).DistBatch(scr.IDs, dists)
		stats.DistComps += len(scr.IDs)
	}
	for i, row := range scr.IDs {
		scr.Bounded.PushBounded(index.Neighbor{ID: ix.extID(row), Dist: dists[i]}, k)
	}
}

func (ix *Index) extID(row int32) int32 {
	if ix.ids != nil {
		return ix.ids[row]
	}
	return row
}

var _ index.Index = (*Index)(nil)
var _ index.SizeReporter = (*Index)(nil)
