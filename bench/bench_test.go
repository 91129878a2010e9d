package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30}
	for _, tc := range []struct{ p, want float64 }{
		{0.50, 30}, {0.90, 50}, {0.99, 50}, {0.20, 10}, {0.21, 20}, {1, 50},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if xs[0] != 50 {
		t.Error("percentile reordered its input")
	}
}

func TestRoundEstimators(t *testing.T) {
	xs := []float64{7, 3, 9, 5}
	if got := median(xs); got != 6 {
		t.Errorf("median = %v, want 6", got)
	}
	if got := median([]float64{4, 1, 9}); got != 4 {
		t.Errorf("odd median = %v, want 4", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q.Q1 != 2.75 || q.Median != 5.5 || q.Q3 != 8.25 || q.N != 10 {
		t.Errorf("quartiles = %+v, want 2.75 5.5 8.25", q)
	}
	if got := q.relSpread(); math.Abs(got-1) > 1e-12 {
		t.Errorf("relSpread = %v, want 1", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q := quartiles([]float64{4, 1, 2}); q.Q1 != 1 || q.Q3 != 4 {
		t.Errorf("quartiles of three = %+v, want 1 and 4", q)
	}
}

func TestEstimateIsMedianOfRounds(t *testing.T) {
	var rounds []roundSample
	for i := 1; i <= 5; i++ {
		lat := make([]float64, 10)
		for j := range lat {
			lat[j] = float64(10*i + j + 1) // median 10i+5, p90 10i+9
		}
		r := roundSample{ops: int64(10 * i), wall: 1e9, latUs: lat}
		r.summarise()
		if r.latUs != nil {
			t.Fatal("summarise kept the latency samples")
		}
		rounds = append(rounds, r)
	}
	// Round throughputs 10..50, round medians 15..55, round p90s 19..59.
	tput, p50, p90 := estimate(rounds)
	if tput.Value != 30 || p50.Value != 35 || p90.Value != 39 {
		t.Errorf("estimate = %v %v %v, want 30 35 39", tput.Value, p50.Value, p90.Value)
	}
	if tput.Rounds.N != 5 || tput.Rounds.Q1 != 15 || tput.Rounds.Q3 != 45 {
		t.Errorf("rounds recorded = %+v, want 5 rounds with quartiles 15 and 45", tput.Rounds)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Op: "workload", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: "round", Start: 10, End: 60},
		// Two children that overlap between 30 and 40 are counted once there.
		{ID: 3, Parent: 2, Op: "collection.search", Start: 10, End: 40},
		{ID: 4, Parent: 2, Op: "collection.search", Start: 30, End: 55},
		{ID: 5, Parent: 1, Op: "probe", Start: 70, End: 90},
	}
	self := selfTimes(spans)
	want := map[int32]int64{1: 100 - 50 - 20, 2: 50 - 45, 3: 30, 4: 25, 5: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestTracerOffIsFree(t *testing.T) {
	var off *tracer
	id := off.begin(0, "op", "")
	off.end(id)
	if id != 0 {
		t.Error("nil tracer handed out a span id")
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer(4)
	outer := tr.begin(0, "round", "round-0")
	inner := tr.begin(outer, "collection.search", "")
	tr.end(inner)
	tr.end(outer)
	if len(tr.spans) != 2 || tr.spans[1].Parent != outer || tr.spans[0].End < tr.spans[1].End || tr.spans[1].End < tr.spans[1].Start {
		t.Errorf("spans = %+v", tr.spans)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricAndWorkloadNames(t *testing.T) {
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; the limits are 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(m.Name)
		if m.Better != lower && m.Better != higher {
			t.Errorf("%s: direction %q", m.Name, m.Better)
		}
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest has %q / %q", i, m.Workloads[i].Name, m.Workloads[i].Why)
		}
	}
	compare := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the manifest, %d in the program", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: manifest has %+v, program has %s %s %s", kind, i, g, w.Name, w.Unit, w.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.Bound) {
				t.Errorf("%s: bound in the manifest does not match %v", w.Name, w.Bound)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd, true)
	compare("per_layer", m.PerLayer, perLayer, false)
}

func metricNames(defs []metricDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	sort.Strings(names)
	return names
}

func resultNames(r result) []string {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// toyConfig runs a workload at toy size for a fraction of a second.
func toyConfig(t *testing.T, trace bool) *runConfig {
	return &runConfig{seed: 3, seconds: 0.05, trace: trace, outDir: t.TempDir(), sizes: toySizes}
}

// TestWorkloadsToy runs every workload at toy size, untraced and traced: no
// check may fail, and the metrics reported must be exactly the declared ones.
func TestWorkloadsToy(t *testing.T) {
	for _, w := range workloads {
		w.setupReps = 1
		for _, trace := range []bool{false, true} {
			name := w.name + "/untraced"
			if trace {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) { toyRun(t, w, trace) })
		}
	}
}

func toyRun(t *testing.T, w workload, trace bool) {
	c := toyConfig(t, trace)
	res, err := runWorkload(w, c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%d of %d failed: %v", res.Failed, res.Attempted, res.Notes)
	}
	want := metricNames(endToEnd)
	if trace {
		want = metricNames(perLayer)
		if _, err := os.Stat(filepath.Join(c.outDir, w.name+".trace.json")); err != nil {
			t.Errorf("no trace file: %v", err)
		}
	}
	if got := resultNames(res); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("reports\n%v\nwant\n%v", got, want)
	}
	for n, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", n, m.Value)
		}
		if !trace && m.Value <= 0 {
			t.Errorf("%s = %v, end-to-end metrics are never 0", n, m.Value)
		}
	}
}

// TestFailedCheckIsCounted poisons the verifier of serve-mono so that it
// believes a returned id was deleted: the failure must reach failed_frac.
func TestFailedCheckIsCounted(t *testing.T) {
	w := workloads[0]
	w.setupReps = 1
	c := toyConfig(t, false)
	c.poison = true
	res, err := runWorkload(w, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("poisoned run: correct=%v failed=%d, want a counted failure", res.Correct, res.Failed)
	}
}

func TestJudge(t *testing.T) {
	host := metricDef{Name: "ops_per_s", Better: higher, Bound: 0.10}
	exact := metricDef{Name: "sim_qps", Better: higher, Bound: 0.10, Exact: true}
	layer := metricDef{Name: "vec.dot_batch_768_ns", Better: lower}
	count := metricDef{Name: "ssd.read_ops_per_query", Better: lower, Exact: true}
	steady := &spread{Q1: 99, Median: 100, Q3: 101, N: 8}
	noisy := &spread{Q1: 80, Median: 100, Q3: 120, N: 8}
	v := func(x float64, s *spread) metricValue { return metricValue{Value: x, Rounds: s} }
	for _, tc := range []struct {
		name          string
		def           metricDef
		before, after metricValue
		want          string
	}{
		{"within bound", host, v(100, steady), v(95, steady), verdictOK},
		{"beyond bound", host, v(100, steady), v(85, steady), verdictRegressed},
		{"improved", host, v(100, steady), v(150, steady), verdictOK},
		{"too noisy to tell", host, v(100, steady), v(85, noisy), verdictUnresolved},
		{"exact unchanged", exact, v(100, nil), v(100, nil), verdictOK},
		{"exact worse by a hair", exact, v(100, nil), v(99.999, nil), verdictRegressed},
		{"exact better", exact, v(100, nil), v(101, nil), verdictOK},
		{"layer rows never gate", layer, v(100, nil), v(500, nil), verdictOK},
		{"exact layer row moved", count, v(25, nil), v(24, nil), verdictChanged},
		{"exact layer row held", count, v(25, nil), v(25, nil), verdictOK},
	} {
		if got, _ := judge(tc.def, tc.before, tc.after); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareExitCode(t *testing.T) {
	mk := func(qps float64) map[string]result {
		return map[string]result{"replay-sync": {Workload: "replay-sync", Metrics: map[string]metricValue{
			"sim_qps": {Value: qps, Unit: "1/s"},
		}}}
	}
	var out bytes.Buffer
	if code := compareResults(mk(100), mk(100), &out); code != 0 {
		t.Errorf("A/A compare exits %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareResults(mk(100), mk(90), &out); code != 1 || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("regression exits %d:\n%s", code, out.String())
	}
}

func TestBadArguments(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		{"-workload", "no-such"}, {"-seconds", "0"}, {"-trace", "2"}, {"-compare", "only-one.json"}, {"-bogus"},
	} {
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}
