// Command hostbench runs the host-speed microbenchmark suite of the search
// hot path and writes the results as JSON — the BENCH_host.json artefact
// that tracks the wall-clock trajectory of the distance kernels and the
// zero-alloc search layer across PRs (ROADMAP item 1 plans to retire it
// for the bench/ ledger), next to
// BENCH_pipeline.json's pipeline numbers.
//
// Two sections:
//
//   - kernels: scalar vs batch scoring of one query against 256 packed rows
//     at the paper's common dimensions (96/128/768/1536), for dot product,
//     squared L2 and cosine. One op scores all 256 rows, so scalar and batch
//     rows compare directly; the batch/scalar ratio at dim 768 is the
//     tentpole's ≥2× acceptance bar.
//   - search: end-to-end queries/sec of the zero-alloc search path — the
//     cached 10k-vector DiskANN stack (in-memory search and recorded
//     execution capture) and a 100k-vector in-memory exact scan.
//
// Usage:
//
//	go run ./cmd/hostbench [-out BENCH_host.json] [-quick] [-data DIR]
//
// -quick runs the kernel section only (the CI smoke mode: no dataset
// generation or index construction).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"testing"

	"svdbench/internal/core"
	"svdbench/internal/dataset"
	"svdbench/internal/index"
	"svdbench/internal/index/flat"
	"svdbench/internal/vdb"
	"svdbench/internal/vec"
)

// result is one benchmark row of the JSON artefact.
type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// QPS is queries per second for search rows (0 for kernel rows).
	QPS float64 `json:"qps,omitempty"`
}

func bench(name string, fn func(b *testing.B)) result {
	r := testing.Benchmark(fn)
	return result{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// benchQPS is bench for search rows where one op runs `queries` queries.
func benchQPS(name string, queries int, fn func(b *testing.B)) result {
	r := bench(name, fn)
	if r.NsPerOp > 0 {
		r.QPS = float64(queries) * 1e9 / r.NsPerOp
	}
	return r
}

// kernelRows is the packed row count of every kernel benchmark.
const kernelRows = 256

// sink defeats dead-code elimination of benchmark bodies.
var sink float32

func kernelBenches() []result {
	r := rand.New(rand.NewSource(1))
	var out []result
	for _, dim := range []int{96, 128, 768, 1536} {
		q := make([]float32, dim)
		rows := make([]float32, kernelRows*dim)
		for i := range q {
			q[i] = r.Float32()
		}
		for i := range rows {
			rows[i] = r.Float32()
		}
		dists := make([]float32, kernelRows)
		row := func(i int) []float32 { return rows[i*dim : (i+1)*dim] }

		out = append(out,
			bench(fmt.Sprintf("dot-%d", dim), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					var s float32
					for j := 0; j < kernelRows; j++ {
						s += vec.Dot(q, row(j))
					}
					sink += s
				}
			}),
			bench(fmt.Sprintf("dot-batch-%d", dim), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					vec.DotBatch(q, rows, dists)
					sink += dists[0]
				}
			}),
			bench(fmt.Sprintf("l2sq-%d", dim), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					var s float32
					for j := 0; j < kernelRows; j++ {
						s += vec.L2Sq(q, row(j))
					}
					sink += s
				}
			}),
			bench(fmt.Sprintf("l2sq-batch-%d", dim), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					vec.L2SqBatch(q, rows, dists)
					sink += dists[0]
				}
			}),
			bench(fmt.Sprintf("cosine-%d", dim), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					var s float32
					for j := 0; j < kernelRows; j++ {
						s += vec.CosineDistance(q, row(j))
					}
					sink += s
				}
			}),
			bench(fmt.Sprintf("cosine-batch-%d", dim), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					vec.DistanceBatch(vec.Cosine, q, rows, dists)
					sink += dists[0]
				}
			}),
		)
	}
	return out
}

func searchBenches(dataDir string) ([]result, error) {
	var out []result

	// 10k tier: the committed cohere-large DiskANN stack (a cache hit under
	// data/stacks), searched in memory and with execution recording. The
	// monolithic single-segment setup matches the committed asset, like the
	// cache/pipeline experiments.
	b := core.NewBench(dataset.ScaleSmall, dataDir)
	mono := vdb.Milvus()
	mono.SegmentCapacity = 0
	st, err := b.Stack("cohere-large", vdb.Setup{Engine: mono, Index: vdb.IndexDiskANN})
	if err != nil {
		return nil, fmt.Errorf("10k stack: %w", err)
	}
	queries := st.Dataset.Queries
	opts := st.Opts
	out = append(out,
		benchQPS("search-diskann-10k", queries.Len(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for qi := 0; qi < queries.Len(); qi++ {
					exec := st.Col.Search(queries.Row(qi), core.PaperK, opts)
					if len(exec.IDs) == 0 {
						b.Fatal("empty result")
					}
				}
			}
		}),
		benchQPS("record-diskann-10k", queries.Len(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if execs := st.Col.RecordQueries(queries, core.PaperK, opts); len(execs) == 0 {
					b.Fatal("no executions")
				}
			}
		}),
	)

	// 100k tier: an in-memory exact scan at paper dimensionality. Generated
	// fresh (not disk-cached): ground truth is skipped, so generation is a
	// few seconds and the artefact stays out of the dataset cache.
	ds := dataset.Generate(dataset.Spec{
		Name: "host-100k", N: 100_000, Dim: 768, NumQueries: 32,
		Clusters: 64, Spread: 0.9, Seed: 7, Metric: vec.Cosine,
	})
	ix := flat.New(ds.Vectors, vec.Cosine, nil)
	scanOpts := index.SearchOptions{Scratch: index.NewSearchScratch()}
	var dst index.Result
	out = append(out,
		benchQPS("scan-flat-100k", ds.Queries.Len(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for qi := 0; qi < ds.Queries.Len(); qi++ {
					ix.SearchInto(ds.Queries.Row(qi), core.PaperK, scanOpts, &dst)
					if len(dst.IDs) == 0 {
						b.Fatal("empty result")
					}
				}
			}
		}),
	)
	return out, nil
}

func main() {
	out := flag.String("out", "BENCH_host.json", "output path ('-' for stdout)")
	quick := flag.Bool("quick", false, "kernel benchmarks only (CI smoke)")
	dataDir := flag.String("data", defaultDataDir(), "dataset cache directory")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("hostbench: ")

	results := kernelBenches()
	// The tentpole bar: batch kernels ≥2× the per-pair scalar path at 768.
	logRatio := func(scalar, batch string) {
		var s, b float64
		for _, r := range results {
			switch r.Name {
			case scalar:
				s = r.NsPerOp
			case batch:
				b = r.NsPerOp
			}
		}
		if s > 0 && b > 0 {
			log.Printf("%s vs %s: %.1fx", batch, scalar, s/b)
		}
	}
	logRatio("dot-768", "dot-batch-768")
	logRatio("l2sq-768", "l2sq-batch-768")
	logRatio("cosine-768", "cosine-batch-768")

	if !*quick {
		sr, err := searchBenches(*dataDir)
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, sr...)
	}

	enc, err := json.MarshalIndent(struct {
		Suite   string   `json:"suite"`
		Results []result `json:"results"`
	}{Suite: "host", Results: results}, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		fmt.Print(string(enc))
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d benchmarks)", *out, len(results))
}

func defaultDataDir() string {
	if d := os.Getenv("SVDBENCH_DATA"); d != "" {
		return d
	}
	return "data"
}
