// Command bench is the repository's one layered benchmark: five workloads,
// host-time and virtual-time end-to-end metrics, and a traced pass that
// reports per-layer metrics. README.md is the glossary; BENCHMARK.json at the
// repository root is the manifest.
//
//	bash bench/run.sh                                   all workloads, untraced
//	bash bench/run.sh -trace 1                          all workloads, traced
//	bash bench/run.sh -workload serve-mono -seed 7      one workload
//	bash bench/run.sh -compare a.json b.json            before/after table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// defaultSeed is the seed of the recorded baseline (README.md, "Baseline").
const defaultSeed = 20250927

// workloads lists the benchmark's workloads in running order. The "why" of
// each is repeated in BENCHMARK.json.
var workloads = []workload{
	{
		name: "serve-mono", setupReps: 3, warm: true, setup: setupServeMono,
		why: "host serving where the index layer works: one DiskANN segment, one closed-loop client, so per-query locks, hand-off and scratch set-up show; sim and ssd idle",
	},
	{
		name: "serve-seg-mixed", setupReps: 3, warm: true, setup: setupServeSeg,
		why: "writes beside reads: 13 IVF_FLAT segments, fan-out, merge, tombstones and a brute-forced growing tail; vec kernels, ivf and the collection work, DiskANN does not",
	},
	{
		name: "replay-sync", setupReps: 3, warm: true, setup: setupReplaySync,
		why: "simulator speed on the per-request device path: sim kernel, ssd.Device, engine replay and trace do all the work and the index none",
	},
	{
		name: "cell-pipelined", setupReps: 3, warm: true, setup: setupCellPipelined,
		why: "one experiment cell through the other copy of each duplicated mechanism: page layout, node cache, look-ahead recording, analytic ssd.Batcher, async replay",
	},
	{
		name: "grid-tiny", setupReps: 75, setup: setupGrid,
		why: "what reproducing the paper waits for: all seven engine/index setups from nothing through build, tune, record and replay; only workload where build, HNSW, IVF_PQ and SQ weigh",
	},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run, or all")
		seed    = fs.Int64("seed", defaultSeed, "seed the inputs are generated from")
		seconds = fs.Float64("seconds", 10, "how long each workload's timed rounds run")
		trace   = fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
		outDir  = fs.String("out", filepath.Join("bench", "out"), "directory for results.json and traces")
		compare = fs.Bool("compare", false, "compare two results files: -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two results files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments")
		fs.Usage()
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}

	var results []result
	for _, w := range selected {
		res, err := runWorkload(w, &runConfig{
			seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir, sizes: fullSizes,
		})
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		printRows(stdout, res)
		results = append(results, res)
	}
	file := "results.json"
	if *trace == 1 {
		file = "results.trace.json"
	}
	if err := writeResults(filepath.Join(*outDir, file), results); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if len(results) == 1 {
		// The contract of a single-workload run: the last line of standard
		// output is one JSON object with exactly these keys.
		if err := json.NewEncoder(stdout).Encode(summaryOf(results[0])); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return 0
}

// printRows prints every metric of a result as "workload metric value unit".
func printRows(w io.Writer, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%s %s %.6g %s\n", res.Workload, n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%s failed_frac %.6g ratio (%d of %d)\n", res.Workload, float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	for _, note := range res.Notes {
		fmt.Fprintf(w, "%s note: %s\n", res.Workload, note)
	}
}

// summary is the one-line form of a single-workload run.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"` // value and unit only
}

func summaryOf(res result) summary {
	s := summary{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for n, m := range res.Metrics {
		s.Metrics[n] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	return s
}

// resultsFile is the document -compare reads.
type resultsFile struct {
	Results []result `json:"results"`
}

func writeResults(path string, results []result) error {
	enc, err := json.MarshalIndent(resultsFile{results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}
