package diskann

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"svdbench/internal/binenc"
	"svdbench/internal/dataset"
	"svdbench/internal/index"
	"svdbench/internal/vec"
)

// FuzzReadFrom feeds ReadFrom mutated snapshots (seeded from valid VAMA0001
// ones at two metrics, whole and truncated). Whatever the bytes, it must not
// panic, must not allocate beyond a small multiple of its input, and must
// either return an error naming the package or an index both layouts of
// which can be searched.
func FuzzReadFrom(f *testing.F) {
	ds := dataset.Generate(dataset.Spec{
		Name: "diskann-fuzz", N: 64, Dim: 8, NumQueries: 1,
		Clusters: 4, Seed: 43, Metric: vec.Cosine, GroundK: 1,
	})
	for _, metric := range []vec.Metric{vec.Cosine, vec.L2} {
		ix, err := Build(ds.Vectors, nil, Config{R: 6, LBuild: 12, PQM: 2, Seed: 3, Metric: metric})
		if err != nil {
			f.Fatal(err)
		}
		snapshot := pagePersistBytes(f, ix)
		f.Add(snapshot)
		f.Add(snapshot[:len(snapshot)/2])
	}
	f.Fuzz(func(t *testing.T, snapshot []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ix, err := ReadFrom(binenc.NewReader(bytes.NewReader(snapshot)), ds.Vectors, nil)
		runtime.ReadMemStats(&after)
		// 1 MiB is the reader's own buffer; decoded structures are a small
		// multiple of the bytes they were decoded from.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4<<20+32*len(snapshot)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(snapshot), got, limit)
		}
		if err != nil {
			if !strings.HasPrefix(err.Error(), "diskann: ") {
				t.Fatalf("error does not say where it came from: %v", err)
			}
			return
		}
		var next int64
		ix.AssignPages(func(n int64) int64 { p := next; next += n; return p })
		for _, layout := range []string{index.LayoutID, index.LayoutPage} {
			ix.Search(ds.Queries.Row(0), 5, index.SearchOptions{SearchList: 10, BeamWidth: 2, Layout: layout})
		}
	})
}
