package diskann

import (
	"errors"
	"fmt"

	"svdbench/internal/binenc"
	"svdbench/internal/index"
	"svdbench/internal/index/pq"
	"svdbench/internal/vec"
)

// Versioned on-disk framings: VAMA0001 is the original node-layout format;
// VAMA0002 appends the page-node layout directory (member lists, inter-page
// adjacency, entry group) after the v1 body and is written exactly when the
// index was built with Config.Layout == index.LayoutPage. Readers accept
// both, so collections persisted before the page layout existed still load.
const (
	PersistMagic   = "VAMA0001"
	PersistMagicV2 = "VAMA0002"
)

// ErrCorruptLayout marks a persisted page-layout directory that fails
// validation (truncated, out-of-range members or adjacency, or a partition
// that does not cover the node set). Callers match it with errors.Is.
var ErrCorruptLayout = errors.New("diskann: corrupt page layout")

// Largest degree and page size a persisted config may claim: both size
// buffers of the page packer, so a damaged value must fail at load.
const (
	maxPersistR        = 1 << 12
	maxPersistPageSize = 1 << 22
)

// WriteTo serialises the Vamana graph, the medoid, and the in-memory PQ
// state. Full-precision vectors are not written: they are re-derivable from
// the dataset and supplied again at load time (on a real deployment they
// live in the on-SSD node pages). Page-layout indexes additionally persist
// their page directory, so pack → persist → reload → persist is
// byte-identical.
func (ix *Index) WriteTo(w *binenc.Writer) {
	magic := PersistMagic
	if ix.cfg.Layout == index.LayoutPage {
		magic = PersistMagicV2
	}
	w.Magic(magic)
	w.Int(ix.cfg.R)
	w.Int(ix.cfg.LBuild)
	w.F64(ix.cfg.Alpha)
	w.Int(int(ix.cfg.Metric))
	w.I64(ix.cfg.Seed)
	w.Int(ix.cfg.PQM)
	w.Int(ix.cfg.PageSize)
	w.Int(ix.data.Len())
	w.I32(ix.medoid)
	for _, nbrs := range ix.graph {
		w.I32s(nbrs)
	}
	ix.quantizer.WriteTo(w)
	w.Bytes(ix.codes)
	if magic == PersistMagicV2 {
		pl := ix.pageLayoutFor()
		w.Int(pl.pages())
		w.I32(pl.entry)
		for p := 0; p < pl.pages(); p++ {
			w.I32s(pl.members[p])
			w.I32s(pl.adj[p])
		}
	}
}

// ReadFrom deserialises an index written with WriteTo, re-binding it to the
// vector data (and optional external ids) it was built over.
func ReadFrom(r *binenc.Reader, data *vec.Matrix, ids []int32) (*Index, error) {
	magic := r.MagicOneOf(PersistMagic, PersistMagicV2)
	cfg := Config{
		R:        r.Int(),
		LBuild:   r.Int(),
		Alpha:    r.F64(),
		Metric:   vec.Metric(r.Int()),
		Seed:     r.I64(),
		PQM:      r.Int(),
		PageSize: r.Int(),
	}
	if magic == PersistMagicV2 {
		cfg.Layout = index.LayoutPage
	}
	n := r.Int()
	if r.Err() != nil {
		return nil, fmt.Errorf("diskann: read snapshot: %w", r.Err())
	}
	if n != data.Len() {
		return nil, fmt.Errorf("diskann: persisted index has %d nodes, data has %d", n, data.Len())
	}
	if cfg.R <= 0 || cfg.R > maxPersistR || cfg.PageSize <= 0 || cfg.PageSize > maxPersistPageSize ||
		cfg.Metric < vec.L2 || cfg.Metric > vec.Cosine {
		return nil, fmt.Errorf("diskann: corrupt persisted config %+v", cfg)
	}
	ix := &Index{
		cfg:    cfg,
		data:   data,
		ids:    ids,
		medoid: r.I32(),
		scorer: index.NewScorer(data, cfg.Metric),
	}
	ix.graph = make([][]int32, n)
	for i := 0; i < n; i++ {
		ix.graph[i] = r.I32s()
	}
	q, err := pq.ReadQuantizer(r)
	if err != nil {
		return nil, fmt.Errorf("diskann: %w", err)
	}
	ix.quantizer = q
	ix.codes = r.Bytes()
	if r.Err() != nil {
		return nil, fmt.Errorf("diskann: read snapshot: %w", r.Err())
	}
	if ix.medoid < 0 || int(ix.medoid) >= n || q.Dim() != data.Dim || len(ix.codes) != n*q.M() {
		return nil, fmt.Errorf("diskann: corrupt persisted index")
	}
	// Both layouts' searches index by these neighbour ids unchecked, so a
	// damaged list must fail here rather than panic inside the beam kernel.
	for i, nbrs := range ix.graph {
		for _, nb := range nbrs {
			if nb < 0 || int(nb) >= n {
				return nil, fmt.Errorf("diskann: corrupt persisted index: node %d has neighbour %d outside [0, %d)", i, nb, n)
			}
		}
	}
	ix.bind()
	if magic == PersistMagicV2 {
		pl, err := readPageLayout(r, ix, n)
		if err != nil {
			return nil, err
		}
		ix.pageLay = pl
	}
	return ix, nil
}

// readPageLayout decodes and validates the v2 page directory. Every failure
// — including a short read mid-directory — wraps ErrCorruptLayout rather
// than panicking, so a damaged file is an error the caller can classify.
func readPageLayout(r *binenc.Reader, ix *Index, n int) (*pageLayout, error) {
	np := r.Int()
	entry := r.I32()
	if r.Err() != nil {
		return nil, fmt.Errorf("%w: directory header: %w", ErrCorruptLayout, r.Err())
	}
	if np < 1 || np > n {
		return nil, fmt.Errorf("%w: %d page groups over %d nodes", ErrCorruptLayout, np, n)
	}
	capacity := pageCapacity(ix.data.Dim, ix.cfg.PageSize)
	pl := &pageLayout{
		pageOf:  make([]int32, n),
		members: make([][]int32, np),
		anchors: make([]int32, np),
		adj:     make([][]int32, np),
		entry:   entry,
	}
	for i := range pl.pageOf {
		pl.pageOf[i] = -1
	}
	for p := 0; p < np; p++ {
		members := r.I32s()
		adj := r.I32s()
		if r.Err() != nil {
			return nil, fmt.Errorf("%w: group %d: %w", ErrCorruptLayout, p, r.Err())
		}
		if len(members) < 1 || len(members) > capacity {
			return nil, fmt.Errorf("%w: group %d holds %d members (capacity %d)", ErrCorruptLayout, p, len(members), capacity)
		}
		for _, row := range members {
			if row < 0 || int(row) >= n {
				return nil, fmt.Errorf("%w: group %d member row %d out of range", ErrCorruptLayout, p, row)
			}
			if pl.pageOf[row] >= 0 {
				return nil, fmt.Errorf("%w: node row %d assigned to groups %d and %d", ErrCorruptLayout, row, pl.pageOf[row], p)
			}
			pl.pageOf[row] = int32(p)
		}
		if len(adj) > pageDegree {
			return nil, fmt.Errorf("%w: group %d has %d inter-page edges (cap %d)", ErrCorruptLayout, p, len(adj), pageDegree)
		}
		for _, q := range adj {
			if q < 0 || int(q) >= np || int(q) == p {
				return nil, fmt.Errorf("%w: group %d inter-page edge to %d out of range", ErrCorruptLayout, p, q)
			}
		}
		pl.members[p] = members
		pl.anchors[p] = members[0]
		pl.adj[p] = adj
	}
	for row, p := range pl.pageOf {
		if p < 0 {
			return nil, fmt.Errorf("%w: node row %d belongs to no page group", ErrCorruptLayout, row)
		}
	}
	if entry < 0 || int(entry) >= np || pl.pageOf[ix.medoid] != entry {
		return nil, fmt.Errorf("%w: entry group %d does not hold the medoid", ErrCorruptLayout, entry)
	}
	return pl, nil
}
