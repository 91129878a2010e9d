package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"svdbench/internal/sim"
	"svdbench/internal/storage/ssd"
	"svdbench/internal/trace"
	"svdbench/internal/vdb"
)

// RunConfig controls one closed-loop measurement, mirroring the paper's
// methodology (Sec. III-B): N query threads, each with one in-flight query,
// cycling through the recorded query set for a fixed duration, page cache
// dropped before each run, repeated with mean ± std reported.
//
// RunConfig is the stable wire form of a measurement: a plain struct whose
// zero fields mean "use the standard defaults" (see Defaults). The
// functional options in options.go (WithThreads, WithRepetitions, ...) are
// the ergonomic layer over it; both construct the same values.
type RunConfig struct {
	// Threads is the closed-loop concurrency (the paper sweeps 1..256).
	Threads int
	// Duration is the virtual measurement window (the paper uses 30 s of
	// wall time; the simulation default is 2 s of virtual time, which
	// yields the same steady-state rates).
	Duration sim.Duration
	// Repetitions is the number of runs aggregated (paper: 5).
	Repetitions int
	// Cores is the simulated CPU core count (paper testbed: 20).
	Cores int
	// Timeline enables fine-grained bandwidth buckets for Fig. 5.
	Timeline bool
	// TimelineBucket overrides the bucket width (default Duration/30).
	TimelineBucket sim.Duration
	// Seed perturbs per-repetition thread start offsets so repetitions
	// differ slightly, as real runs do.
	Seed int64
	// MaxReadConcurrent overrides the engine's segment-worker cap (for
	// the Fig. 12–15 beam-width experiments).
	MaxReadConcurrent int
	// BeamWidth is recorded for reporting only (the recorded executions
	// already embody it).
	BeamWidth int
	// CoalesceReads routes the engine's device reads through an ssd.Batcher:
	// requests outstanding across concurrent queries at the same instant are
	// submitted in shared batches of up to the device queue depth, paying
	// SubmitCPU once per batch plus BatchSubmitCPU per extra request. Service
	// order is unchanged, so the same bytes are read either way.
	CoalesceReads bool
	// LookAhead is recorded for reporting only (the recorded executions
	// already embody the prefetch schedule).
	LookAhead int
}

// Defaults fills zero fields with the standard experiment configuration.
func (c RunConfig) Defaults() RunConfig {
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.Repetitions <= 0 {
		c.Repetitions = 3
	}
	if c.Cores <= 0 {
		c.Cores = 20
	}
	return c
}

// RunOutput bundles the aggregate metrics with the traced timeline of the
// last repetition.
type RunOutput struct {
	Metrics  Metrics
	Timeline []trace.BucketPoint
	// TimelineBucket is the bucket width the timeline was recorded at.
	TimelineBucket sim.Duration
}

// Run executes the closed-loop workload against a fresh simulated stack
// (kernel, CPU, SSD, engine) per repetition and returns aggregated metrics.
// The recorded executions in execs are replayed round-robin across threads,
// restarting from the first query when exhausted, exactly like the paper's
// 1,000-query loop. Run is the context-free wrapper over RunContext; it can
// never be cancelled, so the only failure left is a wedged simulation — a bug
// in the simulated program — and Run panics with that report.
func Run(execs []vdb.QueryExec, traits vdb.Traits, cfg RunConfig) RunOutput {
	out, err := RunContext(context.Background(), execs, traits, cfg)
	if err != nil {
		panic(err)
	}
	return out
}

// RunContext is Run with cancellation: a cancelled ctx stops the measurement
// between repetitions and returns ctx's error with a zero RunOutput. A
// repetition whose simulation deadlocks fails the run with the kernel's
// process dump.
//
// Repetitions run as Scheduler cells: every repetition owns a fresh simulated
// stack and a private result slot indexed by repetition number, so the
// aggregate — and the reported timeline, taken from the last repetition — is
// bit-identical to a sequential run regardless of host scheduling.
func RunContext(ctx context.Context, execs []vdb.QueryExec, traits vdb.Traits, cfg RunConfig) (RunOutput, error) {
	if err := ctx.Err(); err != nil {
		return RunOutput{}, err
	}
	cfg = cfg.Defaults()
	bucket := cfg.TimelineBucket
	if bucket <= 0 {
		bucket = cfg.Duration / 30
		if bucket <= 0 {
			bucket = time.Millisecond
		}
	}
	nrep := cfg.Repetitions
	reps := make([]Metrics, nrep)
	timelines := make([][]trace.BucketPoint, nrep)
	cells := make([]cell, nrep)
	for rep := range cells {
		rep := rep
		cells[rep] = cell{
			key: fmt.Sprintf("rep=%d", rep),
			run: func(context.Context) (err error) {
				reps[rep], timelines[rep], err = runOnce(execs, traits, cfg, int64(rep)+cfg.Seed, bucket)
				return err
			},
		}
	}
	if err := NewScheduler(0).Run(ctx, cells); err != nil {
		return RunOutput{}, err
	}
	return RunOutput{Metrics: AggregateRuns(reps), Timeline: timelines[nrep-1], TimelineBucket: bucket}, nil
}

// runOnce is a single repetition: fresh virtual hardware, drop-caches
// equivalent (everything starts cold), closed loop until the horizon.
func runOnce(execs []vdb.QueryExec, traits vdb.Traits, cfg RunConfig, seed int64, bucket sim.Duration) (Metrics, []trace.BucketPoint, error) {
	// A positive MaxReadConcurrent raises (or lowers) the engine's
	// segment-task pool for this run — the paper adjusts Milvus's
	// maxReadConcurrentRatio this way for the beam-width experiments.
	if traits.IntraQueryParallel && cfg.MaxReadConcurrent > 0 {
		traits.MaxReadConcurrent = cfg.MaxReadConcurrent
	}
	tr := trace.NewTracer(false)
	tr.SetBucket(bucket)
	r := newRig(cfg.Cores, tr)
	eng := vdb.NewEngine(r.k, r.cpu, r.dev, traits)
	if cfg.CoalesceReads {
		eng.SetBatcher(ssd.NewBatcher(r.dev))
	}

	deadline := sim.Time(cfg.Duration)
	var latencies []sim.Duration
	var served, failed int64
	queries := cursor{execs: execs}
	// Small deterministic start skew so repetitions differ and threads do
	// not tick in lockstep.
	skew := func(t int) sim.Duration {
		return time.Duration((int64(t)*7919+seed*104729)%997) * time.Microsecond / 10
	}
	r.clients("query-thread", cfg.Threads, deadline, skew, func(e *sim.Env, _ int) {
		start := e.Now()
		err := eng.RunQuery(e, queries.next())
		end := e.Now()
		if err != nil {
			failed++
			// Back off like a crashing client loop would.
			e.Sleep(time.Millisecond)
			return
		}
		if end <= deadline {
			served++
			latencies = append(latencies, end.Sub(start))
		}
	})
	endTime, err := r.run() // lets in-flight queries drain past the horizon
	if err != nil {
		return Metrics{}, nil, err
	}
	window := cfg.Duration
	if d := endTime.Sub(0); d > window {
		window = d
	}
	util := sim.Utilization(0, r.cpu.BusyTime(), window, cfg.Cores)
	if util > 1 {
		util = 1
	}

	slices.Sort(latencies)
	m := Metrics{
		P50:         rank(latencies, 0.50),
		P90:         rank(latencies, 0.90),
		P99:         rank(latencies, 0.99),
		MeanLatency: MeanDuration(latencies),
		CPUUtil:     util,
		Served:      served,
		Failed:      failed,
	}
	if cfg.Duration > 0 {
		m.QPS = float64(served) / cfg.Duration.Seconds()
	}
	sum := tr.Summarize(cfg.Duration)
	m.ReadMiBps = sum.ReadMiBps
	m.WriteMiBps = sum.WriteMiBps
	m.Frac4KiB = sum.Frac4KiB
	m.MeanReadBytes = sum.MeanReadBytes
	m.ReadOps = sum.ReadOps
	m.CacheHits = sum.CacheHits
	m.CacheHitRate = sum.CacheHitRate
	m.MeanQueueDepth = sum.MeanQueueDepth
	m.MaxQueueDepth = sum.MaxQueueDepth
	m.DeviceBusyFrac = sum.DeviceBusyFrac
	m.CPUBusyFrac = sum.CPUBusyFrac
	m.OverlapFrac = sum.OverlapFrac
	if served > 0 {
		m.BytesPerQuery = float64(sum.ReadBytes) / float64(served)
	}
	var tl []trace.BucketPoint
	if cfg.Timeline {
		tl = tr.Timeline()
	}
	return m, tl, nil
}

// rig is one fresh simulated testbed — a kernel, a CPU and the default SSD —
// on which a harness measurement runs its closed-loop clients. A non-nil
// tracer observes the device and the CPU's busy edges.
type rig struct {
	k   *sim.Kernel
	cpu *sim.CPU
	dev *ssd.Device
	tr  *trace.Tracer
}

func newRig(cores int, tr *trace.Tracer) *rig {
	k := sim.NewKernel()
	cpu := sim.NewCPU(k, cores)
	dev := ssd.New(k, cpu, ssd.DefaultConfig())
	if tr != nil {
		dev.Attach(tr)
		cpu.SetBusyNotify(tr.SetCPUBusy)
	}
	return &rig{k: k, cpu: cpu, dev: dev, tr: tr}
}

// clients spawns n closed-loop clients named name. Client c first sleeps
// skew(c) when skew is non-nil, then calls op until the clock reaches
// deadline; op's iter counts the client's earlier calls.
func (r *rig) clients(name string, n int, deadline sim.Time, skew func(c int) sim.Duration, op func(e *sim.Env, iter int)) {
	for c := 0; c < n; c++ {
		c := c
		r.k.Spawn(name, func(e *sim.Env) {
			if skew != nil {
				e.Sleep(skew(c))
			}
			for iter := 0; e.Now() < deadline; iter++ {
				op(e, iter)
			}
		})
	}
}

// run runs the simulation until every process has finished, so in-flight
// operations drain past the deadline, and closes the tracer's integration at
// the end time. If the event queue drains with processes still blocked — a
// deadlock in the simulated program — it returns an error naming them, where
// the kernel's default is to panic on whichever host goroutine runs the cell.
func (r *rig) run() (end sim.Time, err error) {
	r.k.OnDeadlock(func(k *sim.Kernel) {
		err = fmt.Errorf("core: replay wedged: %s", k.DeadlockReport())
	})
	end = r.k.RunAll()
	r.tr.FinishAt(end)
	return end, err
}

// cursor hands out a recorded query set round-robin, restarting from the
// first query when exhausted; the clients of one rig share it.
type cursor struct {
	execs []vdb.QueryExec
	i     int
}

func (c *cursor) next() *vdb.QueryExec {
	qe := &c.execs[c.i]
	c.i++
	if c.i == len(c.execs) {
		c.i = 0
	}
	return qe
}
