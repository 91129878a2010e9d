package vdb

import (
	"fmt"
	"hash/fnv"
	"os"

	"svdbench/internal/binenc"
	"svdbench/internal/index"
	"svdbench/internal/index/diskann"
	"svdbench/internal/index/hnsw"
	"svdbench/internal/index/ivf"
	"svdbench/internal/vec"
)

const collectionMagic = "SVDCOL01"

// Fingerprint identifies everything the bytes of a saved collection depend
// on besides its data: the build parameters and the collection and index
// snapshot formats. A cache of saved collections keys on it, so a change to
// any of them is a miss rather than a stale hit.
func (p BuildParams) Fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v %s %s %s %s %s", p, collectionMagic,
		hnsw.PersistMagic, diskann.PersistMagic, diskann.PersistMagicV2, ivf.PersistMagic)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Save persists the collection's sealed index structures to path. Vector
// payload data is not written — it is re-derivable from the dataset — so
// the file holds segment boundaries plus each segment's serialised index.
// Growing rows, tombstones and payloads are runtime state and are not
// persisted (matching a database checkpoint of sealed segments).
func (c *Collection) Save(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("vdb: save: %w", err)
	}
	w := binenc.NewWriter(f)
	w.Magic(collectionMagic)
	w.String(c.Name)
	w.Int(c.dim)
	w.Int(int(c.metric))
	w.String(string(c.kind))
	w.Int(len(c.segments))
	for _, s := range c.segments {
		w.I32s(s.IDs)
		switch ix := s.Index.(type) {
		case *hnsw.Index:
			ix.WriteTo(w)
		case *diskann.Index:
			ix.WriteTo(w)
		case *ivf.Index:
			ix.WriteTo(w)
		default:
			f.Close()
			os.Remove(tmp)
			// A cache-ineligible index reaching Save is a harness bug, not
			// caller input, so it stays an internal (exit 1) error.
			return fmt.Errorf("vdb: save: unsupported index type %T", s.Index) //annlint:allow errwrap -- harness bug, internal by design
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("vdb: save: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("vdb: save: %w", err)
	}
	return os.Rename(tmp, path)
}

// LoadCollection restores a collection saved with Save, re-binding it to the
// full dataset matrix it was bulk-loaded from. traits and params must match
// the original configuration (they determine scheduler behaviour, not the
// persisted structure).
func LoadCollection(path string, data *vec.Matrix, traits Traits, params BuildParams) (*Collection, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("vdb: load: %w", err)
	}
	defer f.Close()
	r := binenc.NewReader(f)
	r.Magic(collectionMagic)
	name := r.String()
	dim := r.Int()
	metric := vec.Metric(r.Int())
	kind := IndexKind(r.String())
	nseg := r.Int()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if dim != data.Dim {
		return nil, fmt.Errorf("vdb: load: persisted dim %d, data dim %d", dim, data.Dim)
	}
	if nseg < 0 || nseg > 1<<20 {
		return nil, fmt.Errorf("vdb: load: corrupt segment count %d", nseg)
	}
	col, err := NewCollection(name, dim, metric, traits, kind, params)
	if err != nil {
		return nil, err
	}
	var maxID int32 = -1
	for si := 0; si < nseg; si++ {
		ids := r.I32s()
		if r.Err() != nil {
			return nil, r.Err()
		}
		sub := vec.NewMatrix(len(ids), dim)
		for i, id := range ids {
			if int(id) >= data.Len() || id < 0 {
				return nil, fmt.Errorf("vdb: load: segment %d references row %d outside data", si, id)
			}
			sub.SetRow(i, data.Row(int(id)))
			if id > maxID {
				maxID = id
			}
		}
		var ix index.Index
		switch kind {
		case IndexHNSW, IndexHNSWSQ:
			ix, err = hnsw.ReadFrom(r, sub, ids)
		case IndexDiskANN:
			ix, err = diskann.ReadFrom(r, sub, ids)
		case IndexIVFFlat, IndexIVFPQ:
			ix, err = ivf.ReadFrom(r, sub, ids)
		default:
			return nil, fmt.Errorf("vdb: load: unknown index kind %q", kind) //annlint:allow errwrap -- corrupt snapshot bytes are a cache condition, not caller parameters
		}
		if err != nil {
			return nil, fmt.Errorf("vdb: load: segment %d: %w", si, err)
		}
		col.segments = append(col.segments, &Segment{IDs: ids, Data: sub, Index: ix})
	}
	col.nextID = maxID + 1
	return col, nil
}
