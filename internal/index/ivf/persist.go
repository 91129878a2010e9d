package ivf

import (
	"fmt"
	"slices"

	"svdbench/internal/binenc"
	"svdbench/internal/index"
	"svdbench/internal/index/pq"
	"svdbench/internal/vec"
)

// PersistMagic frames (and versions) a persisted IVF index.
const PersistMagic = "IVFX0001"

// WriteTo serialises the centroids, posting lists, and (for the PQ variant)
// the codec and codes. Full-precision vectors are re-supplied at load time.
func (ix *Index) WriteTo(w *binenc.Writer) {
	w.Magic(PersistMagic)
	w.Int(ix.cfg.NList)
	w.Int(int(ix.cfg.Metric))
	w.I64(ix.cfg.Seed)
	pqFlag := 0
	if ix.cfg.PQ {
		pqFlag = 1
	}
	w.Int(pqFlag)
	w.Int(ix.cfg.PQM)
	w.Int(ix.cfg.PageSize)
	w.Int(ix.data.Len())
	w.Int(ix.centroids.Dim)
	w.F32s(ix.centroids.Raw())
	w.Int(len(ix.lists))
	for _, list := range ix.lists {
		w.I32s(list)
	}
	if ix.cfg.PQ {
		ix.quantizer.WriteTo(w)
		w.Bytes(ix.codes)
	}
}

// ReadFrom deserialises an index written with WriteTo, re-binding it to its
// vector data (and optional external ids). Everything a search indexes by
// unchecked — metric, centroid dimension, posting-list rows, the PQ codec and
// codes — is validated here, so a damaged snapshot is an error, never a panic
// inside the first Search.
func ReadFrom(r *binenc.Reader, data *vec.Matrix, ids []int32) (*Index, error) {
	r.Magic(PersistMagic)
	cfg := Config{
		NList:  r.Int(),
		Metric: vec.Metric(r.Int()),
		Seed:   r.I64(),
	}
	cfg.PQ = r.Int() == 1
	cfg.PQM = r.Int()
	cfg.PageSize = r.Int()
	n := r.Int()
	if r.Err() != nil {
		return nil, fmt.Errorf("ivf: read snapshot: %w", r.Err())
	}
	if n != data.Len() {
		return nil, fmt.Errorf("ivf: persisted index has %d rows, data has %d", n, data.Len())
	}
	if cfg.Metric < vec.L2 || cfg.Metric > vec.Cosine || cfg.PageSize <= 0 {
		return nil, fmt.Errorf("ivf: corrupt header: metric %d, page size %d", int(cfg.Metric), cfg.PageSize)
	}
	cdim := r.Int()
	raw := r.F32s()
	if r.Err() != nil {
		return nil, fmt.Errorf("ivf: read snapshot: %w", r.Err())
	}
	if cdim != data.Dim || len(raw)%cdim != 0 {
		return nil, fmt.Errorf("ivf: corrupt centroid block: %d floats of dim %d for %d-d data", len(raw), cdim, data.Dim)
	}
	centroids := vec.NewMatrix(len(raw)/cdim, cdim)
	copy(centroids.Raw(), raw)
	ix := &Index{
		cfg:       cfg,
		data:      data,
		ids:       ids,
		centroids: centroids,
		scorer:    index.NewScorer(data, cfg.Metric),
	}
	nlists := r.Int()
	if r.Err() != nil {
		return nil, fmt.Errorf("ivf: read snapshot: %w", r.Err())
	}
	if nlists != centroids.Len() {
		return nil, fmt.Errorf("ivf: %d lists for %d centroids", nlists, centroids.Len())
	}
	ix.lists = make([][]int32, nlists)
	listed := make([]bool, n)
	for c := 0; c < nlists; c++ {
		ix.lists[c] = r.I32s()
		for _, row := range ix.lists[c] {
			if row < 0 || int(row) >= n || listed[row] {
				return nil, fmt.Errorf("ivf: list %d holds row %d: outside [0, %d) or listed twice", c, row, n)
			}
			listed[row] = true
		}
	}
	if cfg.PQ {
		q, err := pq.ReadQuantizer(r)
		if err != nil {
			return nil, fmt.Errorf("ivf: %w", err)
		}
		ix.quantizer = q
		ix.codes = r.Bytes()
		if r.Err() == nil && (q.Dim() != data.Dim || len(ix.codes) != n*q.M()) {
			return nil, fmt.Errorf("ivf: corrupt pq state: dim %d, %d code bytes for %d rows of %d", q.Dim(), len(ix.codes), n, q.M())
		}
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("ivf: read snapshot: %w", r.Err())
	}
	if slices.Contains(listed, false) {
		return nil, fmt.Errorf("ivf: lists do not cover all %d rows", n)
	}
	return ix, nil
}
