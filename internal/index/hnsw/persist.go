package hnsw

import (
	"fmt"
	"math"

	"svdbench/internal/binenc"
	"svdbench/internal/index"
	"svdbench/internal/index/sq"
	"svdbench/internal/vec"
)

// PersistMagic frames (and versions) a persisted HNSW index.
const PersistMagic = "HNSW0001"

// WriteTo serialises the graph structure (links, levels, entry point) and,
// for the SQ variant, the codec and codes. Vector data is not written: it is
// re-derivable from the dataset and supplied again at load time.
func (ix *Index) WriteTo(w *binenc.Writer) {
	w.Magic(PersistMagic)
	w.Int(ix.cfg.M)
	w.Int(ix.cfg.EfConstruction)
	w.Int(int(ix.cfg.Metric))
	w.I64(ix.cfg.Seed)
	quantized := 0
	if ix.cfg.ScalarQuantize {
		quantized = 1
	}
	w.Int(quantized)
	w.Int(ix.data.Len())
	w.Ints(ix.levels)
	w.I32(ix.entry)
	w.Int(ix.maxLevel)
	for _, perLevel := range ix.links {
		w.Int(len(perLevel))
		for _, l := range perLevel {
			w.I32s(l)
		}
	}
	if ix.cfg.ScalarQuantize {
		ix.quantizer.WriteTo(w)
		w.Bytes(ix.codes)
	}
}

// ReadFrom deserialises an index written with WriteTo, re-binding it to the
// vector data (and optional external ids) it was built over. Everything a
// search indexes by unchecked — metric, entry point, levels, neighbour ids,
// SQ codes — is validated here, so a damaged snapshot is an error, never a
// panic inside the first Search.
func ReadFrom(r *binenc.Reader, data *vec.Matrix, ids []int32) (*Index, error) {
	r.Magic(PersistMagic)
	cfg := Config{
		M:              r.Int(),
		EfConstruction: r.Int(),
		Metric:         vec.Metric(r.Int()),
		Seed:           r.I64(),
	}
	cfg.ScalarQuantize = r.Int() == 1
	n := r.Int()
	if r.Err() != nil {
		return nil, fmt.Errorf("hnsw: read snapshot: %w", r.Err())
	}
	if n != data.Len() {
		return nil, fmt.Errorf("hnsw: persisted index has %d nodes, data has %d", n, data.Len())
	}
	if !cfg.Metric.Valid() {
		return nil, fmt.Errorf("hnsw: corrupt metric %d", int(cfg.Metric))
	}
	ix := &Index{
		cfg:    cfg,
		data:   data,
		ids:    ids,
		levels: r.Ints(),
		entry:  r.I32(),
		scorer: index.NewScorer(data, cfg.Metric),
	}
	ix.maxLevel = r.Int()
	ix.mult = 1 / math.Log(float64(cfg.M))
	if r.Err() != nil {
		return nil, fmt.Errorf("hnsw: read snapshot: %w", r.Err())
	}
	if len(ix.levels) != n || ix.entry < 0 || int(ix.entry) >= n || ix.maxLevel != ix.levels[ix.entry] {
		return nil, fmt.Errorf("hnsw: corrupt header: %d levels for %d nodes, entry %d, top level %d", len(ix.levels), n, ix.entry, ix.maxLevel)
	}
	ix.links = make([][][]int32, n)
	for i := 0; i < n; i++ {
		nl := r.Int()
		if r.Err() != nil {
			return nil, fmt.Errorf("hnsw: read snapshot: %w", r.Err())
		}
		if nl < 1 || nl > 64 || nl != ix.levels[i]+1 {
			return nil, fmt.Errorf("hnsw: node %d has %d link levels at level %d", i, nl, ix.levels[i])
		}
		ix.links[i] = make([][]int32, nl)
		for l := 0; l < nl; l++ {
			ix.links[i][l] = r.I32s()
			for _, nb := range ix.links[i][l] {
				if nb < 0 || int(nb) >= n {
					return nil, fmt.Errorf("hnsw: node %d has neighbour %d outside [0, %d)", i, nb, n)
				}
			}
		}
	}
	if cfg.ScalarQuantize {
		q, err := sq.ReadQuantizer(r)
		if err != nil {
			return nil, fmt.Errorf("hnsw: %w", err)
		}
		ix.quantizer = q
		ix.codes = r.Bytes()
		if r.Err() == nil && (q.Dim() != data.Dim || len(ix.codes) != n*data.Dim) {
			return nil, fmt.Errorf("hnsw: corrupt sq state: dim %d, %d code bytes for %d×%d data", q.Dim(), len(ix.codes), n, data.Dim)
		}
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("hnsw: read snapshot: %w", r.Err())
	}
	return ix, nil
}
