package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// Verdicts of one (workload, metric) row of -compare.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictChanged    = "changed"
)

// judge compares a metric's value after a change with its value before.
// Exact metrics regress on any worsening; the others when they worsen by more
// than the bound, and are unresolved instead when either run's own quartile
// spread over rounds is wider than the bound (the difference cannot be told
// from noise). Per-layer metrics carry no bound and never regress; an exact
// one that moved at all is reported as changed, because a change that only
// means to make the program faster must leave it identical.
func judge(def metricDef, before, after metricValue) (verdict string, change float64) {
	if before.Value != 0 {
		change = (after.Value - before.Value) / before.Value
	}
	worse := change
	if def.Better == higher {
		worse = -change
	}
	switch {
	case def.Exact && def.Bound > 0 && worse > 0:
		return verdictRegressed, change
	case def.Exact && def.Bound == 0 && after.Value != before.Value:
		return verdictChanged, change
	case def.Exact || def.Bound == 0:
		return verdictOK, change
	}
	for _, m := range []metricValue{before, after} {
		if m.Rounds != nil && m.Rounds.relSpread() > def.Bound {
			return verdictUnresolved, change
		}
	}
	if worse > def.Bound {
		return verdictRegressed, change
	}
	return verdictOK, change
}

func readResults(path string) (map[string]result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]result{}
	for _, r := range f.Results {
		out[r.Workload] = r
	}
	return out, nil
}

// compareFiles prints one row per (workload, metric) present in both files
// and returns 1 when any row regressed or a workload's outputs went wrong.
func compareFiles(beforePath, afterPath string, stdout, stderr io.Writer) int {
	before, err := readResults(beforePath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	after, err := readResults(afterPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	return compareResults(before, after, stdout)
}

func compareResults(before, after map[string]result, stdout io.Writer) int {
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbefore\tafter\tchange\tbound\tverdict")
	code := 0
	for _, w := range workloads {
		b, okB := before[w.name]
		a, okA := after[w.name]
		if !okB || !okA {
			continue
		}
		names := make([]string, 0, len(a.Metrics))
		for n := range a.Metrics {
			if _, ok := b.Metrics[n]; ok {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			def, ok := findMetric(n)
			if !ok {
				continue
			}
			verdict, change := judge(def, b.Metrics[n], a.Metrics[n])
			if verdict == verdictRegressed {
				code = 1
			}
			bound := "-"
			if def.Exact && def.Bound > 0 {
				bound = "exact"
			} else if def.Bound > 0 {
				bound = fmt.Sprintf("%.2f", def.Bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%s\t%s\n", w.name, n, b.Metrics[n].Value, a.Metrics[n].Value, 100*change, bound, verdict)
		}
		verdict := verdictOK
		if a.Failed > b.Failed {
			verdict, code = verdictRegressed, 1
		}
		fmt.Fprintf(tw, "%s\tfailed\t%d\t%d\t\texact\t%s\n", w.name, b.Failed, a.Failed, verdict)
	}
	if err := tw.Flush(); err != nil {
		return 1
	}
	return code
}
