// Command pipelinebench runs the host-side microbenchmark suite of the
// async batched search pipeline and writes the results as JSON — the
// BENCH_pipeline.json artefact that tracks the wall-clock trajectory of the
// batch-first hot path across PRs (ROADMAP item 1 plans to retire it for
// the bench/ ledger).
//
// Five targets cover the pipeline's two halves at tiny dataset scale:
//
//	search-batch          SearchBatch over the whole query set, synchronous
//	search-batch-la4      the same batch recording a look-ahead-4 schedule
//	replay-sync           simulated replay, direct per-request submission
//	replay-pipelined-la0  simulated replay, coalesced batches, no look-ahead
//	replay-pipelined      simulated replay, look-ahead + coalesced batches
//
// replay-pipelined-la0 isolates the batching machinery: it replays the same
// schedules as replay-sync, so its ns/op must not exceed replay-sync's —
// coalescing is pure mechanism and must cost nothing when nothing overlaps.
//
// Usage:
//
//	go run ./cmd/pipelinebench [-out BENCH_pipeline.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"testing"
	"time"

	"svdbench"
)

// result is one benchmark row of the JSON artefact.
type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
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

func main() {
	out := flag.String("out", "BENCH_pipeline.json", "output path ('-' for stdout)")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("pipelinebench: ")

	spec, err := svdbench.CatalogSpec("cohere-small", svdbench.ScaleTiny)
	if err != nil {
		log.Fatal(err)
	}
	ds := svdbench.GenerateDataset(spec)
	col, err := svdbench.NewCollection("bench", ds.Spec.Dim, ds.Spec.Metric,
		svdbench.Milvus(), svdbench.IndexDiskANN, svdbench.DefaultBuildParams())
	if err != nil {
		log.Fatal(err)
	}
	if err := col.BulkLoad(ds.Vectors, nil); err != nil {
		log.Fatal(err)
	}
	var page int64
	col.AssignStorage(func(n int64) int64 { p := page; page += n; return p })

	syncOpts := svdbench.NewSearchOptions(svdbench.WithSearchList(20), svdbench.WithBeamWidth(4))
	laOpts := syncOpts.With(svdbench.WithLookAhead(4))
	syncExecs := col.RecordQueries(ds.Queries, svdbench.PaperK, syncOpts)
	laExecs := col.RecordQueries(ds.Queries, svdbench.PaperK, laOpts)
	ctx := context.Background()

	replayCfg := svdbench.RunConfig{
		Threads: 8, Duration: 50 * time.Millisecond, Repetitions: 1, Cores: 20,
	}
	results := []result{
		bench("search-batch", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := col.SearchBatch(ctx, ds.Queries, svdbench.PaperK, syncOpts); len(got) == 0 {
					b.Fatal("empty batch")
				}
			}
		}),
		bench("search-batch-la4", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := col.SearchBatch(ctx, ds.Queries, svdbench.PaperK, laOpts); len(got) == 0 {
					b.Fatal("empty batch")
				}
			}
		}),
		bench("replay-sync", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := svdbench.RunWorkload(syncExecs, svdbench.Milvus(), replayCfg)
				if out.Metrics.Served == 0 {
					b.Fatal("no queries served")
				}
			}
		}),
		bench("replay-pipelined-la0", func(b *testing.B) {
			b.ReportAllocs()
			cfg := replayCfg
			cfg.CoalesceReads = true
			for i := 0; i < b.N; i++ {
				out := svdbench.RunWorkload(syncExecs, svdbench.Milvus(), cfg)
				if out.Metrics.Served == 0 {
					b.Fatal("no queries served")
				}
			}
		}),
		bench("replay-pipelined", func(b *testing.B) {
			b.ReportAllocs()
			cfg := replayCfg
			cfg.CoalesceReads = true
			cfg.LookAhead = 4
			for i := 0; i < b.N; i++ {
				out := svdbench.RunWorkload(laExecs, svdbench.Milvus(), cfg)
				if out.Metrics.Served == 0 {
					b.Fatal("no queries served")
				}
			}
		}),
	}

	enc, err := json.MarshalIndent(struct {
		Suite   string   `json:"suite"`
		Dataset string   `json:"dataset"`
		Results []result `json:"results"`
	}{Suite: "pipeline", Dataset: spec.Name, Results: results}, "", "  ")
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
