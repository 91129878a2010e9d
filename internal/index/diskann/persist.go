package diskann

import (
	"fmt"

	"svdbench/internal/binenc"
	"svdbench/internal/index"
	"svdbench/internal/index/pq"
	"svdbench/internal/vec"
)

// PersistMagic frames a snapshot: config, graph, medoid and PQ state. It
// stores no page layout: that is derived from the graph, so a loaded index
// packs it on its first page-layout search, exactly as the index it was saved
// from did.
const PersistMagic = "VAMA0001"

// Largest degree and page size a persisted config may claim: both size
// buffers of the page packer, so a damaged value must fail at load.
const (
	maxPersistR        = 1 << 12
	maxPersistPageSize = 1 << 22
)

// WriteTo serialises the Vamana graph, the medoid, and the in-memory PQ
// state. Full-precision vectors are not written: they are re-derivable from
// the dataset and supplied again at load time (on a real deployment they
// live in the on-SSD node pages).
func (ix *Index) WriteTo(w *binenc.Writer) {
	w.Magic(PersistMagic)
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
}

// ReadFrom deserialises an index written with WriteTo, re-binding it to the
// vector data (and optional external ids) it was built over.
func ReadFrom(r *binenc.Reader, data *vec.Matrix, ids []int32) (*Index, error) {
	r.Magic(PersistMagic)
	cfg := Config{
		R:        r.Int(),
		LBuild:   r.Int(),
		Alpha:    r.F64(),
		Metric:   vec.Metric(r.Int()),
		Seed:     r.I64(),
		PQM:      r.Int(),
		PageSize: r.Int(),
	}
	n := r.Int()
	if r.Err() != nil {
		return nil, fmt.Errorf("diskann: read snapshot: %w", r.Err())
	}
	if n != data.Len() {
		return nil, fmt.Errorf("diskann: persisted index has %d nodes, data has %d", n, data.Len())
	}
	if cfg.R <= 0 || cfg.R > maxPersistR || cfg.PageSize <= 0 || cfg.PageSize > maxPersistPageSize ||
		!cfg.Metric.Valid() {
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
	return ix, nil
}
