package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"svdbench/internal/core"
)

// k is the result depth of every search (the paper evaluates recall@10).
const k = core.PaperK

// minRecall fails a run whose searches stopped finding the true neighbours.
const minRecall = 0.95

// sizes are the input sizes of the workloads. fullSizes is what the benchmark
// measures; the tests run the same code at toySizes.
type sizes struct {
	monoN       int // vectors of the monolithic DiskANN collection
	queries     int // query vectors of the generated datasets
	segN        int // vectors of the segmented IVF_FLAT collection
	segCap      int // its segment capacity
	growRows    int // rows pre-loaded into its growing tail each round
	tombstones  int // ids tombstoned before each round
	mixedOps    int // operations of one serve-seg-mixed round
	monoOps     int // searches of one serve-mono round
	replayCalls int // core.Run calls of one replay round
	records     int // RecordQueries passes of one cell-pipelined round
	cacheNodes  int // static node-cache capacity of cell-pipelined
	probeCalls  int // calls per probe loop
	probeRounds int // equal-work rounds of a host-time probe, which reports the best
	minRounds   int // timed rounds run even when the time box is already spent
	simWindow   time.Duration
}

var fullSizes = sizes{
	monoN: 500, queries: 200,
	segN: 4000, segCap: 320, growRows: 480, tombstones: 40, mixedOps: 300,
	monoOps: 1000, replayCalls: 8, records: 4, cacheNodes: 25,
	probeCalls: 2000, probeRounds: 8, minRounds: 3, simWindow: 25 * time.Millisecond,
}

var toySizes = sizes{
	monoN: 120, queries: 40,
	segN: 200, segCap: 64, growRows: 24, tombstones: 4, mixedOps: 100,
	monoOps: 60, replayCalls: 2, records: 1, cacheNodes: 10,
	probeCalls: 40, probeRounds: 1, minRounds: 1, simWindow: 5 * time.Millisecond,
}

// runConfig is one invocation of one workload.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
	sizes   sizes
	// poison makes the verifier of a workload expect something the system
	// did not do, so the tests can prove that a failed check is counted.
	poison bool
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// setupReps is how many times set-up runs so that setup_s is a median.
	setupReps int
	// warm runs one discarded round before timing, so lazily built state
	// (scratch buffers, page layouts) is not charged to the first round.
	warm  bool
	setup func(c *runConfig, sb *tracer, parent int32) (instance, error)
}

// instance is a workload after set-up.
type instance interface {
	// round runs one timed round; every round of an instance does the same
	// work.
	round(sb *tracer, parent int32) roundSample
	// verify checks outputs outside the timed rounds and reports the
	// workload's recall and modelled (virtual-time) results.
	verify(rounds []roundSample) verdict
	// probe measures the layers below the call boundary by replaying the
	// workload's inputs directly against them (traced pass only).
	probe(sb *tracer, parent int32, out map[string]float64)
}

// roundSample is what one timed round measured.
type roundSample struct {
	ops    int64         // operations completed
	failed int64         // operations whose output failed its check
	wall   time.Duration // host time of the round
	latUs  []float64     // host latency per operation, µs; nil once summarised
	p50Us  float64       // median of latUs
	p90Us  float64       // 90th percentile of latUs
	// sim is the virtual-time result of a replay round; every round of a run
	// must report the same one.
	sim *core.Metrics
}

// verdict is the outcome of a workload's output checks.
type verdict struct {
	attempted int64
	failed    int64
	allFailed bool
	recall    float64
	sim       core.Metrics
	notes     []string
}

func (v *verdict) check(ok bool, format string, args ...interface{}) {
	v.attempted++
	if !ok {
		v.failed++
		if len(v.notes) < 8 {
			v.notes = append(v.notes, fmt.Sprintf(format, args...))
		}
	}
}

// requireRecall fails a run whose searches stopped finding the true
// neighbours.
func (v *verdict) requireRecall(recall float64) {
	v.recall = recall
	if recall < minRecall {
		v.failRun("recall@%d %.4f below %.2f", k, recall, minRecall)
	}
}

// failRun marks every operation of the run as failed: a replay whose rounds
// disagree, or a recall collapse, invalidates all of its numbers.
func (v *verdict) failRun(format string, args ...interface{}) {
	v.allFailed = true
	v.notes = append(v.notes, fmt.Sprintf(format, args...))
}

// metricValue is one reported number with the per-round values it was
// estimated from.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Rounds *spread `json:"rounds,omitempty"`
}

// result is one workload's outcome, as written to results.json.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Notes     []string               `json:"notes,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// liveHeapMiB is HeapAlloc after two forced collections (the second frees
// what finalizers of the first released).
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// summarise replaces the round's latency samples by their median and 90th
// percentile, so that what the benchmark itself keeps resident does not grow
// with the number of rounds a run fits (live_heap_mib is read after them).
func (r *roundSample) summarise() {
	r.p50Us, r.p90Us = percentile(r.latUs, 0.50), percentile(r.latUs, 0.90)
	r.latUs = nil
}

// timedRounds runs rounds of inst until the time box is used up, and at
// least minRounds.
func timedRounds(inst instance, sb *tracer, parent int32, box time.Duration, minRounds int) []roundSample {
	var rounds []roundSample
	start := time.Now()
	for i := 0; ; i++ {
		runtime.GC() // untimed: every round starts from a collected heap
		id := sb.begin(parent, "round", fmt.Sprintf("round-%d", i))
		r := inst.round(sb, id)
		sb.end(id)
		r.summarise()
		rounds = append(rounds, r)
		if i+1 >= minRounds && time.Since(start)+r.wall > box {
			return rounds
		}
	}
}

// estimate turns the rounds into the three host-time end-to-end metrics:
// each is the median over the rounds of the per-round value (throughput, and
// the round's latency percentile). Rounds do equal work and last well under
// a second, while the sandbox's speed moves by ±10–20 % from one round to the
// next and in phases of seconds; the best round catches a rare fast phase, a
// mean follows every stall, and the median of a few dozen rounds discards
// both tails. The quartiles over rounds are written beside every value.
func estimate(rounds []roundSample) (opsPerS, p50, p90 metricValue) {
	var tput, r50, r90 []float64
	for _, r := range rounds {
		tput = append(tput, float64(r.ops)/r.wall.Seconds())
		r50 = append(r50, r.p50Us)
		r90 = append(r90, r.p90Us)
	}
	mk := func(unit string, xs []float64) metricValue {
		s := quartiles(xs)
		return metricValue{Value: s.Median, Unit: unit, Rounds: &s}
	}
	return mk("1/s", tput), mk("us", r50), mk("us", r90)
}

// runWorkload sets a workload up, measures it and checks its outputs. The
// untraced pass reports the end-to-end metrics; the traced pass reports the
// per-layer metrics and writes <outDir>/<workload>.trace.json.
func runWorkload(w workload, c *runConfig) (result, error) {
	res := result{Workload: w.name, Seed: c.seed, Seconds: c.seconds, Traced: c.trace, Metrics: map[string]metricValue{}}
	var sb *tracer
	if c.trace {
		sb = newTracer(1 << 16)
	}
	root := sb.begin(0, "workload", w.name)

	reps := w.setupReps
	if c.trace {
		reps = 1
	}
	var inst instance
	var setups []float64
	for i := 0; i < reps; i++ {
		inst = nil   // let the previous set-up's state be collected,
		runtime.GC() // untimed, so that every repetition starts from the same heap
		id := sb.begin(root, "setup", "setup")
		start := time.Now()
		var err error
		inst, err = w.setup(c, sb, id)
		setups = append(setups, time.Since(start).Seconds())
		sb.end(id)
		if err != nil {
			return res, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
	}
	if w.warm {
		inst.round(nil, 0)
	}

	box := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		box /= 2
	}
	rounds := timedRounds(inst, nil, 0, box, c.sizes.minRounds)
	var traced []roundSample
	if c.trace {
		traced = timedRounds(inst, sb, root, box, c.sizes.minRounds)
	}
	v := inst.verify(append(append([]roundSample(nil), rounds...), traced...))
	for _, r := range append(rounds, traced...) {
		v.attempted += r.ops
		v.failed += r.failed
	}
	heap := liveHeapMiB() // the workload's working state is still resident
	if v.allFailed {
		v.failed = v.attempted
	}
	res.Attempted, res.Failed, res.Notes = v.attempted, v.failed, v.notes
	res.Correct = v.failed == 0

	opsPerS, p50, p90 := estimate(rounds)
	if !c.trace {
		ss := quartiles(setups)
		res.Metrics["setup_s"] = metricValue{Value: median(setups), Unit: "s", Rounds: &ss}
		res.Metrics["ops_per_s"] = opsPerS
		res.Metrics["op_p50_us"] = p50
		res.Metrics["recall_at_10"] = metricValue{Value: v.recall, Unit: "ratio"}
		res.Metrics["sim_qps"] = metricValue{Value: v.sim.QPS, Unit: "1/s"}
		res.Metrics["sim_p99_us"] = metricValue{Value: us(v.sim.P99), Unit: "us"}
		res.Metrics["live_heap_mib"] = metricValue{Value: heap, Unit: "MiB"}
		return res, nil
	}

	layer := map[string]float64{}
	pid := sb.begin(root, "probe", "probe")
	inst.probe(sb, pid, layer)
	probeCommon(sb, pid, c.sizes.probeRounds, layer)
	sb.end(pid)
	simLayerMetrics(v.sim, layer)
	tracedOps, _, _ := estimate(traced)
	layer["bench.op_p90_us"] = p90.Value
	layer["bench.trace_overhead_frac"] = opsPerS.Value/tracedOps.Value - 1
	sb.end(root)
	for _, m := range perLayer {
		res.Metrics[m.Name] = metricValue{Value: layer[m.Name], Unit: m.Unit}
	}
	if err := writeTrace(filepath.Join(c.outDir, w.name+".trace.json"), w.name, sb.spans); err != nil {
		return res, fmt.Errorf("%s: write trace: %w", w.name, err)
	}
	return res, nil
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// simLayerMetrics spreads one core.Metrics over the virtual-side layer rows.
func simLayerMetrics(m core.Metrics, out map[string]float64) {
	if m.Served > 0 {
		out["ssd.read_ops_per_query"] = float64(m.ReadOps) / float64(m.Served)
	}
	out["ssd.read_kib_per_query"] = m.KiBPerQuery()
	out["ssd.frac_4kib"] = m.Frac4KiB
	out["ssd.mean_queue_depth"] = m.MeanQueueDepth
	out["ssd.max_queue_depth"] = float64(m.MaxQueueDepth)
	out["ssd.device_busy_frac"] = m.DeviceBusyFrac
	out["sim.cpu_util"] = m.CPUUtil
	out["sim.overlap_frac"] = m.OverlapFrac
	out["sim.p50_us"] = us(m.P50)
	out["sim.mean_latency_us"] = us(m.MeanLatency)
	out["trace.cache_hit_rate"] = m.CacheHitRate
}
