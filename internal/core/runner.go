package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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
// Repetitions fan out across host goroutines (bounded by the repetition
// count and runtime.GOMAXPROCS): every repetition owns a fresh simulated
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
	errs := make([]error, nrep)
	workers := runtime.GOMAXPROCS(0)
	if workers > nrep {
		workers = nrep
	}
	var (
		next int64
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				rep := int(atomic.AddInt64(&next, 1)) - 1
				if rep >= nrep || ctx.Err() != nil {
					return
				}
				reps[rep], timelines[rep], errs[rep] = runOnce(execs, traits, cfg, int64(rep)+cfg.Seed, bucket)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return RunOutput{}, err
	}
	if err := errors.Join(errs...); err != nil {
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
	k := sim.NewKernel()
	cpu := sim.NewCPU(k, cfg.Cores)
	dev := ssd.New(k, cpu, ssd.DefaultConfig())
	tr := trace.NewTracer(false)
	tr.SetBucket(bucket)
	dev.Attach(tr)
	cpu.SetBusyNotify(tr.SetCPUBusy)
	eng := vdb.NewEngine(k, cpu, dev, traits)
	if cfg.CoalesceReads {
		eng.SetBatcher(ssd.NewBatcher(dev))
	}

	deadline := sim.Time(cfg.Duration)
	var latencies []sim.Duration
	var served, failed int64
	next := 0 // shared round-robin cursor over the query set

	for t := 0; t < cfg.Threads; t++ {
		t := t
		k.Spawn("query-thread", func(e *sim.Env) {
			// Small deterministic start skew so repetitions differ and
			// threads do not tick in lockstep.
			skew := time.Duration((int64(t)*7919+seed*104729)%997) * time.Microsecond / 10
			e.Sleep(skew)
			for e.Now() < deadline {
				qe := &execs[next]
				next++
				if next == len(execs) {
					next = 0
				}
				start := e.Now()
				err := eng.RunQuery(e, qe)
				end := e.Now()
				if err != nil {
					failed++
					// Back off like a crashing client loop would.
					e.Sleep(time.Millisecond)
					continue
				}
				if end <= deadline {
					served++
					latencies = append(latencies, end.Sub(start))
				}
			}
		})
	}
	busyStart := cpu.BusyTime()
	endTime, err := runToEnd(k) // lets in-flight queries drain past the horizon
	if err != nil {
		return Metrics{}, nil, err
	}
	tr.FinishAt(endTime) // close the queue-depth/overlap integration
	busyEnd := cpu.BusyTime()
	window := cfg.Duration
	if d := endTime.Sub(0); d > window {
		window = d
	}
	util := sim.Utilization(busyStart, busyEnd, window, cfg.Cores)
	if util > 1 {
		util = 1
	}

	m := Metrics{
		P50:         Percentile(latencies, 0.50),
		P90:         Percentile(latencies, 0.90),
		P99:         Percentile(latencies, 0.99),
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

// runToEnd runs the simulation until every process has finished. If the
// event queue drains with processes still blocked — a deadlock in the
// simulated program — it returns an error naming them, where the kernel's
// default is to panic on whichever host goroutine runs the repetition.
func runToEnd(k *sim.Kernel) (end sim.Time, err error) {
	k.OnDeadlock(func(k *sim.Kernel) {
		err = fmt.Errorf("core: replay wedged: %s", k.DeadlockReport())
	})
	end = k.RunAll()
	return end, err
}
