package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
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
				tr := trace.NewTracer(false)
				tr.SetBucket(bucket)
				reps[rep], timelines[rep], err = runOnce(newRig(cfg.Cores, tr), execs, traits, cfg, int64(rep)+cfg.Seed)
				return err
			},
		}
	}
	if err := NewScheduler(0).Run(ctx, cells); err != nil {
		return RunOutput{}, err
	}
	return RunOutput{Metrics: AggregateRuns(reps), Timeline: timelines[nrep-1], TimelineBucket: bucket}, nil
}

// runOnce is a single repetition on r, a fresh rig with a tracer:
// drop-caches equivalent (everything starts cold), closed loop until the
// horizon.
func runOnce(r *rig, execs []vdb.QueryExec, traits vdb.Traits, cfg RunConfig, seed int64) (Metrics, []trace.BucketPoint, error) {
	// A positive MaxReadConcurrent raises (or lowers) the engine's
	// segment-task pool for this run — the paper adjusts Milvus's
	// maxReadConcurrentRatio this way for the beam-width experiments.
	if traits.IntraQueryParallel && cfg.MaxReadConcurrent > 0 {
		traits.MaxReadConcurrent = cfg.MaxReadConcurrent
	}
	eng := vdb.NewEngine(r.k, r.cpu, r.dev, traits)
	if cfg.CoalesceReads {
		eng.SetBatcher(ssd.NewBatcher(r.dev))
	}

	queries := cursor{execs: execs}
	res := tally{deadline: sim.Time(cfg.Duration)}
	// Small deterministic start skew so repetitions differ and threads do
	// not tick in lockstep.
	skew := func(t int) sim.Duration {
		return time.Duration((int64(t)*7919+seed*104729)%997) * time.Microsecond / 10
	}
	r.clients("query-thread", cfg.Threads, res.deadline, skew, func(t *sim.Timer) clientOp {
		// Back off like a crashing client loop would.
		return &queryOp{k: r.k, t: t, q: eng.NewOp(t), queries: &queries, tally: &res, backoff: time.Millisecond}
	})
	endTime, err := r.run() // lets in-flight queries drain past the horizon
	if err != nil {
		return Metrics{}, nil, err
	}
	latencies, served, failed := res.latencies, res.served, res.failed
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
	sum := r.tr.Summarize(cfg.Duration)
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
		tl = r.tr.Timeline()
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
	all []*client // every client started, for the wedge report
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

// clientOp is the operation a closed-loop client repeats, a state machine on
// the client's timer: start begins the iter'th at the current instant and
// resume continues it at a wake-up, each reporting whether it has finished;
// phase names what a blocked one waits in.
type clientOp interface {
	start(iter int) bool
	resume() bool
	phase() string
}

// client is one closed-loop client: a timer that sleeps its start skew, if
// any, then runs operations back to back, each starting in the wake-up the
// last finished in, until the clock reaches the deadline.
type client struct {
	k        *sim.Kernel
	t        *sim.Timer
	name     string
	idx      int
	deadline sim.Time
	skew     func(c int) sim.Duration
	op       clientOp
	iter     int      // operations finished
	since    sim.Time // when the operation in flight last blocked
	state    uint8    // clientNew, clientSkewed, clientBusy or clientDone
}

const (
	clientNew = iota
	clientSkewed
	clientBusy
	clientDone
)

// clients starts n closed-loop clients named name at the current instant,
// each repeating the operation op makes for its timer. Client c first sleeps
// skew(c) when skew is non-nil.
func (r *rig) clients(name string, n int, deadline sim.Time, skew func(c int) sim.Duration, op func(t *sim.Timer) clientOp) {
	for i := 0; i < n; i++ {
		c := &client{k: r.k, name: name, idx: i, deadline: deadline, skew: skew}
		c.t = sim.NewTimer(c)
		c.op = op(c.t)
		r.all = append(r.all, c)
		r.k.WakeAt(c.t, r.k.Now())
	}
}

func (c *client) Wake() {
	switch c.state {
	case clientNew:
		if c.skew != nil {
			c.state = clientSkewed
			c.k.WakeAt(c.t, c.k.Now().Add(c.skew(c.idx)))
			return
		}
	case clientBusy:
		if !c.op.resume() {
			c.since = c.k.Now()
			return
		}
		c.iter++
	}
	for c.k.Now() < c.deadline {
		if !c.op.start(c.iter) {
			c.state, c.since = clientBusy, c.k.Now()
			return
		}
		c.iter++
	}
	c.state = clientDone
}

// run runs the simulation until it drains, so in-flight operations finish
// past the deadline, and closes the tracer's integration at the end time. A
// simulation that drains with a client unfinished or a process blocked is
// wedged, and run returns an error naming them, where the kernel's default
// is to panic on whichever host goroutine runs the cell.
func (r *rig) run() (end sim.Time, err error) {
	r.k.OnDeadlock(func(k *sim.Kernel) {
		err = fmt.Errorf("core: replay wedged: %s", k.DeadlockReport())
	})
	end = r.k.RunAll()
	r.tr.FinishAt(end)
	var stuck []string
	for _, c := range r.all {
		if c.state != clientDone {
			stuck = append(stuck, fmt.Sprintf("%s #%d in %s blocked since t=%v", c.name, c.idx, c.op.phase(), c.since))
		}
	}
	if err == nil && len(stuck) > 0 {
		err = fmt.Errorf("core: replay wedged at t=%v: %d of %d clients unfinished:\n  %s", end, len(stuck), len(r.all), strings.Join(stuck, "\n  "))
	}
	return end, err
}

// tally collects a rig's query outcomes: the latency of every query that
// finished by the deadline, and the number the engine refused.
type tally struct {
	deadline       sim.Time
	latencies      []sim.Duration
	served, failed int64
}

// queryOp is a query client's operation: the next recorded query and, if the
// engine refused it and backoff is positive, a back-off sleep.
type queryOp struct {
	k       *sim.Kernel
	t       *sim.Timer
	q       *vdb.Op
	queries *cursor
	tally   *tally
	backoff sim.Duration
	began   sim.Time
	resting bool
}

func (o *queryOp) start(int) bool {
	o.began = o.k.Now()
	return o.q.Query(o.queries.next()) && o.finish()
}

func (o *queryOp) resume() bool {
	if o.resting {
		o.resting = false
		return true
	}
	return o.q.Resume() && o.finish()
}

// finish accounts a finished query and reports whether the operation is over.
func (o *queryOp) finish() bool {
	now := o.k.Now()
	if o.q.Err() != nil {
		o.tally.failed++
		if o.resting = o.backoff > 0; o.resting {
			o.k.WakeAt(o.t, now.Add(o.backoff))
		}
		return !o.resting
	}
	if now <= o.tally.deadline {
		o.tally.served++
		o.tally.latencies = append(o.tally.latencies, now.Sub(o.began))
	}
	return true
}

func (o *queryOp) phase() string {
	if o.resting {
		return "back-off"
	}
	return o.q.Phase()
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
