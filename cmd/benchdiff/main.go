// Command benchdiff compares a freshly generated benchmark artefact
// (cmd/hostbench) against its checked-in baseline and
// fails when the hot path regressed: any kernel or search entry more than
// 20% slower in ns/op, or allocating more per op at all (the zero-alloc
// contract admits no tolerance). Replay entries — the macro simulation
// rows, whose timing is workload-shaped rather than kernel-shaped — are
// reported but not gated.
//
// Usage:
//
//	go run ./cmd/benchdiff -base BENCH_host.json -new /tmp/fresh.json
//
// Entries are matched by name over the intersection of the two files; rows
// present on only one side are reported and ignored, so adding a benchmark
// does not break the gate retroactively.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// entry is one benchmark row of the artefact (the fields benchdiff gates).
type entry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// artefact is the on-disk shape of BENCH_host.json.
type artefact struct {
	Suite   string  `json:"suite"`
	Results []entry `json:"results"`
}

// gated reports whether an entry participates in the regression gate.
// Replay rows replay a recorded query log through the device simulation;
// their wall-clock is dominated by simulated-workload shape and is tracked
// by the pipeline acceptance tests instead.
func gated(name string) bool { return !strings.HasPrefix(name, "replay-") }

// diff compares fresh results against the baseline. It returns one report
// line per comparison and the subset that regressed.
func diff(base, fresh artefact, nsTolerance float64) (report []string, regressions []string) {
	baseline := make(map[string]entry, len(base.Results))
	for _, e := range base.Results {
		baseline[e.Name] = e
	}
	seen := make(map[string]bool, len(fresh.Results))
	for _, e := range fresh.Results {
		seen[e.Name] = true
		b, ok := baseline[e.Name]
		if !ok {
			report = append(report, fmt.Sprintf("  new   %-24s %12.0f ns/op %8d allocs/op (no baseline, ignored)", e.Name, e.NsPerOp, e.AllocsPerOp))
			continue
		}
		ratio := 0.0
		if b.NsPerOp > 0 {
			ratio = e.NsPerOp / b.NsPerOp
		}
		line := fmt.Sprintf("  %-24s %12.0f -> %12.0f ns/op (%+.1f%%)  %d -> %d allocs/op",
			e.Name, b.NsPerOp, e.NsPerOp, 100*(ratio-1), b.AllocsPerOp, e.AllocsPerOp)
		if !gated(e.Name) {
			report = append(report, line+"  [not gated]")
			continue
		}
		var bad []string
		if b.NsPerOp > 0 && ratio > 1+nsTolerance {
			bad = append(bad, fmt.Sprintf("ns/op +%.1f%% exceeds %.0f%% tolerance", 100*(ratio-1), 100*nsTolerance))
		}
		if e.AllocsPerOp > b.AllocsPerOp {
			bad = append(bad, fmt.Sprintf("allocs/op grew %d -> %d", b.AllocsPerOp, e.AllocsPerOp))
		}
		if len(bad) > 0 {
			line += "  REGRESSION: " + strings.Join(bad, "; ")
			regressions = append(regressions, fmt.Sprintf("%s: %s", e.Name, strings.Join(bad, "; ")))
		}
		report = append(report, line)
	}
	for _, e := range base.Results {
		if !seen[e.Name] {
			report = append(report, fmt.Sprintf("  gone  %-24s (baseline row missing from fresh run, ignored)", e.Name))
		}
	}
	return report, regressions
}

func readArtefact(path string) (artefact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return artefact{}, err
	}
	var a artefact
	if err := json.Unmarshal(data, &a); err != nil {
		return artefact{}, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

func main() {
	basePath := flag.String("base", "BENCH_host.json", "checked-in baseline artefact")
	freshPath := flag.String("new", "", "freshly generated artefact to gate")
	nsTol := flag.Float64("ns-tolerance", 0.20, "allowed fractional ns/op increase on gated entries")
	flag.Parse()
	if *freshPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -new is required")
		os.Exit(2)
	}
	base, err := readArtefact(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	fresh, err := readArtefact(*freshPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if base.Suite != fresh.Suite {
		fmt.Fprintf(os.Stderr, "benchdiff: suite mismatch: baseline %q vs fresh %q\n", base.Suite, fresh.Suite)
		os.Exit(2)
	}
	report, regressions := diff(base, fresh, *nsTol)
	fmt.Printf("benchdiff: suite %q, %s vs %s\n", base.Suite, *basePath, *freshPath)
	for _, line := range report {
		fmt.Println(line)
	}
	if len(regressions) > 0 {
		fmt.Printf("benchdiff: %d regression(s):\n", len(regressions))
		for _, r := range regressions {
			fmt.Println("  " + r)
		}
		os.Exit(1)
	}
	fmt.Println("benchdiff: no regressions")
}
