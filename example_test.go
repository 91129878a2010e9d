package svdbench_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"svdbench"
)

// Example shows the end-to-end flow: generate a dataset, build a collection
// under an engine profile, search it, and replay the workload on the
// simulated testbed.
func Example() {
	spec, err := svdbench.CatalogSpec("cohere-small", svdbench.ScaleTiny)
	if err != nil {
		log.Fatal(err)
	}
	ds := svdbench.GenerateDataset(spec)

	col, err := svdbench.NewCollection("demo", ds.Spec.Dim, ds.Spec.Metric,
		svdbench.Milvus(), svdbench.IndexDiskANN, svdbench.DefaultBuildParams())
	if err != nil {
		log.Fatal(err)
	}
	if err := col.BulkLoad(ds.Vectors, nil); err != nil {
		log.Fatal(err)
	}
	var page int64
	col.AssignStorage(func(n int64) int64 { p := page; page += n; return p })

	opts := svdbench.SearchOptions{SearchList: 10, BeamWidth: 4}
	execs := col.RecordQueries(ds.Queries, svdbench.PaperK, opts)
	out := svdbench.RunWorkload(execs, svdbench.Milvus(), svdbench.RunConfig{
		Threads: 8, Duration: 100 * time.Millisecond, Repetitions: 1,
	})
	fmt.Println(out.Metrics.Served > 0)
	// Output: true
}

// ExampleBuildHNSW builds a bare HNSW index outside the database layer.
func ExampleBuildHNSW() {
	data := svdbench.NewMatrix(3, 4)
	data.SetRow(0, []float32{1, 0, 0, 0})
	data.SetRow(1, []float32{0, 1, 0, 0})
	data.SetRow(2, []float32{0.9, 0.1, 0, 0})
	ix, err := svdbench.BuildHNSW(data, nil, svdbench.HNSWConfig{M: 4, Metric: svdbench.L2, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	res := ix.Search([]float32{1, 0, 0, 0}, 2, svdbench.SearchOptions{EfSearch: 4})
	fmt.Println(res.IDs)
	// Output: [0 2]
}

// ExampleExperiments lists the registry that regenerates the paper.
func ExampleExperiments() {
	fmt.Println(len(svdbench.Experiments()), "experiments")
	first, _ := svdbench.ExperimentByID("table1")
	fmt.Println(first.Paper)
	// Output:
	// 23 experiments
	// Table I
}

// ExampleCollection_SearchBatch runs a whole query set through the
// batch-first search core. Each query's result is byte-identical to calling
// Search per query; the batch runs one query per host core at once, and
// LookAhead pipelines each query's storage reads at replay.
func ExampleCollection_SearchBatch() {
	spec, err := svdbench.CatalogSpec("cohere-small", svdbench.ScaleTiny)
	if err != nil {
		log.Fatal(err)
	}
	ds := svdbench.GenerateDataset(spec)

	col, err := svdbench.NewCollection("demo", ds.Spec.Dim, ds.Spec.Metric,
		svdbench.Milvus(), svdbench.IndexDiskANN, svdbench.DefaultBuildParams())
	if err != nil {
		log.Fatal(err)
	}
	if err := col.BulkLoad(ds.Vectors, nil); err != nil {
		log.Fatal(err)
	}
	var page int64
	col.AssignStorage(func(n int64) int64 { p := page; page += n; return p })

	opts := svdbench.SearchOptions{SearchList: 10, BeamWidth: 4, LookAhead: 2}
	execs := col.SearchBatch(context.Background(), ds.Queries, svdbench.PaperK, opts)
	single := col.Search(ds.Queries.Row(0), svdbench.PaperK, opts)
	fmt.Println(len(execs) == ds.Queries.Len())
	fmt.Println(fmt.Sprint(execs[0].IDs) == fmt.Sprint(single.IDs))
	// Output:
	// true
	// true
}
