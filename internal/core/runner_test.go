package core

import (
	"strings"
	"testing"
	"time"

	"svdbench/internal/index"
	"svdbench/internal/sim"
	"svdbench/internal/trace"
	"svdbench/internal/vdb"
)

// heapWork is the work of a synthetic step whose burst under the default
// cost model is d, a whole multiple of one heap operation's 25 ns.
func heapWork(d time.Duration) index.Work {
	return index.Work{Heap: int32(d * 1000 / time.Duration(index.DefaultCostModel().HeapOpPs))}
}

// syntheticExecs builds n pure-CPU query executions of the given cost.
func syntheticExecs(n int, cpu time.Duration, pages int) []vdb.QueryExec {
	execs := make([]vdb.QueryExec, n)
	for i := range execs {
		step := index.Step{Work: heapWork(cpu)}
		for p := 0; p < pages; p++ {
			step.Pages = append(step.Pages, int64(p))
		}
		execs[i] = vdb.QueryExec{Segments: [][]index.Step{{step}}}
	}
	return execs
}

func fastCfg(threads int) RunConfig {
	return RunConfig{Threads: threads, Duration: 200 * time.Millisecond, Repetitions: 2, Cores: 20}
}

func plainTraits() vdb.Traits {
	return vdb.Traits{Name: "plain", PerQueryCPU: 10 * time.Microsecond}
}

func TestRunProducesThroughput(t *testing.T) {
	execs := syntheticExecs(100, time.Millisecond, 0)
	out := Run(execs, plainTraits(), fastCfg(1))
	m := out.Metrics
	if m.Served == 0 || m.QPS <= 0 {
		t.Fatalf("no throughput: %+v", m)
	}
	// One thread, ~1.01 ms per query → ≈990 QPS.
	if m.QPS < 800 || m.QPS > 1100 {
		t.Errorf("QPS = %.0f, want ≈990", m.QPS)
	}
	if m.P99 < time.Millisecond {
		t.Errorf("P99 = %v below service time", m.P99)
	}
}

func TestRunScalesWithThreads(t *testing.T) {
	execs := syntheticExecs(100, time.Millisecond, 0)
	one := Run(execs, plainTraits(), fastCfg(1)).Metrics.QPS
	eight := Run(execs, plainTraits(), fastCfg(8)).Metrics.QPS
	if eight < 6*one {
		t.Errorf("8 threads gave %.0f QPS vs %.0f at 1 (poor scaling)", eight, one)
	}
}

func TestRunSaturatesAtCores(t *testing.T) {
	execs := syntheticExecs(100, time.Millisecond, 0)
	cfg := fastCfg(64) // 64 threads on 20 cores
	m := Run(execs, plainTraits(), cfg).Metrics
	// Max ≈ 20 cores / 1.01ms ≈ 19.8k QPS.
	if m.QPS > 21000 {
		t.Errorf("QPS %.0f exceeds core capacity", m.QPS)
	}
	if m.CPUUtil < 0.9 {
		t.Errorf("CPU util %.2f, want saturated", m.CPUUtil)
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	execs := syntheticExecs(50, 500*time.Microsecond, 2)
	a := Run(execs, plainTraits(), fastCfg(4))
	b := Run(execs, plainTraits(), fastCfg(4))
	if a.Metrics.QPS != b.Metrics.QPS || a.Metrics.P99 != b.Metrics.P99 {
		t.Errorf("same config diverged: %v vs %v", a.Metrics, b.Metrics)
	}
}

func TestRunRecordsIO(t *testing.T) {
	execs := syntheticExecs(50, 100*time.Microsecond, 4)
	m := Run(execs, plainTraits(), fastCfg(4)).Metrics
	if m.ReadMiBps <= 0 {
		t.Error("no read bandwidth for I/O workload")
	}
	if m.Frac4KiB != 1 {
		t.Errorf("4KiB fraction = %v, want 1 (page reads only)", m.Frac4KiB)
	}
	wantBytes := 4 * 4096.0
	if m.BytesPerQuery < wantBytes*0.99 || m.BytesPerQuery > wantBytes*1.01 {
		t.Errorf("bytes/query = %v, want %v", m.BytesPerQuery, wantBytes)
	}
}

func TestRunIdleWakeSuperlinearity(t *testing.T) {
	tr := plainTraits()
	tr.IdleWake = 2 * time.Millisecond
	execs := syntheticExecs(100, 100*time.Microsecond, 0)
	one := Run(execs, tr, fastCfg(1)).Metrics.QPS
	sixteen := Run(execs, tr, fastCfg(16)).Metrics.QPS
	// With every 1-thread query paying the wake penalty, 16 threads must
	// scale superlinearly (O-4's mechanism).
	if sixteen < 20*one {
		t.Errorf("scaling %0.1f× not superlinear (1→16 threads: %.0f → %.0f)", sixteen/one, one, sixteen)
	}
}

func TestRunOOMCountsFailures(t *testing.T) {
	tr := plainTraits()
	tr.MemPerQuery = 1 << 30
	tr.MemBudget = 4 << 30
	execs := syntheticExecs(20, 5*time.Millisecond, 0)
	m := Run(execs, tr, fastCfg(16)).Metrics
	if m.Failed == 0 {
		t.Error("no OOM failures at 16 threads with 4-query budget")
	}
	if m.Served == 0 {
		t.Error("all queries failed; some should fit the budget")
	}
}

func TestRunTimeline(t *testing.T) {
	execs := syntheticExecs(50, 100*time.Microsecond, 2)
	out := Run(execs, plainTraits(), fastCfg(4))
	if len(out.Timeline) == 0 {
		t.Fatal("no timeline buckets")
	}
	if out.TimelineBucket <= 0 {
		t.Error("no bucket width")
	}
}

func TestRunDefaults(t *testing.T) {
	cfg := RunConfig{}.Defaults()
	if cfg.Threads != 1 || cfg.Duration != 2*time.Second || cfg.Repetitions != 3 || cfg.Cores != 20 {
		t.Errorf("defaults = %+v", cfg)
	}
	// Set fields survive; only zero ones take the standard values.
	set := RunConfig{Threads: 256, Repetitions: 5, Cores: 8, Seed: 42}.Defaults()
	if set.Threads != 256 || set.Repetitions != 5 || set.Cores != 8 || set.Seed != 42 || set.Duration != 2*time.Second {
		t.Errorf("defaults over set fields = %+v", set)
	}
}

func TestFailLabel(t *testing.T) {
	if failLabel(Metrics{QPS: 5}) != "5.0" {
		t.Error("plain label wrong")
	}
	if failLabel(Metrics{Failed: 3}) != "FAIL(oom)" {
		t.Error("total failure label wrong")
	}
	if got := failLabel(Metrics{QPS: 5, Served: 2, Failed: 3}); got != "5.0 (partial, 3 oom)" {
		t.Errorf("partial label = %q", got)
	}
}

// Property: latency percentiles are ordered for any thread count.
func TestPropertyPercentilesOrdered(t *testing.T) {
	execs := syntheticExecs(60, 300*time.Microsecond, 2)
	for _, threads := range []int{1, 3, 17, 50} {
		m := Run(execs, plainTraits(), fastCfg(threads)).Metrics
		if m.P50 > m.P90 || m.P90 > m.P99 {
			t.Errorf("threads=%d: P50=%v P90=%v P99=%v not ordered", threads, m.P50, m.P90, m.P99)
		}
		if m.MeanLatency <= 0 {
			t.Errorf("threads=%d: no mean latency", threads)
		}
	}
}

// The segment-task pool must cap intra-query parallel engines' throughput
// below the pure-CPU bound (O-4's plateau mechanism).
func TestRunSegmentPoolPlateau(t *testing.T) {
	// Segment tasks that mostly wait on I/O: the task pool binds long
	// before the CPU does, exactly the Milvus-DiskANN situation.
	mk := func() []vdb.QueryExec {
		execs := make([]vdb.QueryExec, 40)
		for i := range execs {
			segs := make([][]index.Step, 30)
			for s := range segs {
				segs[s] = []index.Step{
					{Work: heapWork(5 * time.Microsecond), Pages: []int64{0}},
					{Work: heapWork(5 * time.Microsecond), Pages: []int64{1}},
				}
			}
			execs[i] = vdb.QueryExec{Segments: segs}
		}
		return execs
	}
	four := Run(mk(), vdb.Milvus(), fastCfg(4)).Metrics.QPS
	big := Run(mk(), vdb.Milvus(), fastCfg(64)).Metrics.QPS
	if big > four*1.5 {
		t.Errorf("no plateau: t=4 %.0f vs t=64 %.0f", four, big)
	}
	// Raising the pool (the Fig. 12–15 configuration) lifts the plateau.
	cfg := fastCfg(64)
	cfg.MaxReadConcurrent = 512
	raised := Run(mk(), vdb.Milvus(), cfg).Metrics.QPS
	if raised <= big*1.5 {
		t.Errorf("raised pool did not lift throughput: %.0f vs %.0f", raised, big)
	}
}

// wedgeOp sleeps 1 ms, then takes its semaphore twice, so its second take
// waits forever.
type wedgeOp struct {
	k   *sim.Kernel
	t   *sim.Timer
	sem *sim.Semaphore
}

func (w *wedgeOp) start(int) bool {
	w.k.WakeAt(w.t, w.k.Now().Add(time.Millisecond))
	return false
}

func (w *wedgeOp) resume() bool {
	w.sem.AcquireTimer(w.t, 1)
	return w.sem.AcquireTimer(w.t, 1)
}

func (w *wedgeOp) phase() string { return "lock" }

// TestRunToEndReportsWedgedSimulation: a simulation that deadlocks fails the
// repetition with an error naming the blocked client, instead of panicking on
// a worker goroutine or — its clients being timers the kernel does not count
// — ending the run silently and short.
func TestRunToEndReportsWedgedSimulation(t *testing.T) {
	r := newRig(1, nil)
	sem := sim.NewSemaphore(r.k, "lock", 1)
	r.clients("query-thread", 1, sim.Time(time.Second), nil, func(t *sim.Timer) clientOp {
		return &wedgeOp{k: r.k, t: t, sem: sem}
	})
	_, err := r.run()
	if err == nil || !strings.Contains(err.Error(), "query-thread #0 in lock blocked since t=1ms") {
		t.Errorf("wedged simulation returned %v, want an error naming the blocked client", err)
	}
}

// TestReplayRunsNoProcess pins what the harness's replay costs the kernel,
// exactly: a Milvus-DiskANN repetition and an Extension A run resume no
// process — clients, queries, segments, reads and writers are all timers —
// and per served query they call no more timer wake-ups, and push no more lane
// and heap wake-ups, than they do today. A beam's reads share one job, which
// wakes once to ring their doorbells, once when the doorbells end and once at
// the last completion, and the engine's fixed-delay sleeps ride lanes; with a
// timer per read, three wake-ups each, the two runs took 164.10 and 171.23
// timer wake-ups, 84.83 and 87.63 lane pushes and 22.53 and 26.73 heap pushes.
// The process replay pushed 27.71 and 33.30 heap wake-ups, where every
// blocking read's doorbell went through the heap.
func TestReplayRunsNoProcess(t *testing.T) {
	b := tinyBench(t)
	st, err := b.Stack("cohere-small", milvusDiskANN())
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{Threads: 16, Duration: 50 * time.Millisecond}.Defaults()
	for _, run := range []struct {
		name string
		do   func(r *rig) (Metrics, error)
		// Per served query: timer wake-ups, lane pushes and heap pushes.
		wakes, lane, heap float64
	}{
		{"runOnce", func(r *rig) (Metrics, error) {
			m, _, err := runOnce(r, st.Execs, st.Setup.Engine, cfg, 0)
			return m, err
		}, 83.18, 32.97, 20.50},
		{"runHybrid", func(r *rig) (Metrics, error) { return runHybrid(r, st, 16, 4, cfg) }, 90.50, 38.77, 21.89},
	} {
		r := newRig(cfg.Cores, trace.NewTracer(false))
		m, err := run.do(r)
		if err != nil {
			t.Fatal(err)
		}
		s := r.k.Stats()
		if s.Resumes != 0 {
			t.Errorf("%s resumed a process %d times", run.name, s.Resumes)
		}
		if m.Served == 0 || s.TimerWakes == 0 {
			t.Fatalf("%s served %d queries in %d timer wake-ups", run.name, m.Served, s.TimerWakes)
		}
		for _, c := range []struct {
			what  string
			n     int64
			bound float64
		}{{"timer wake-ups", s.TimerWakes, run.wakes}, {"lane pushes", s.LanePushes, run.lane}, {"heap pushes", s.HeapPushes, run.heap}} {
			if perQuery := float64(c.n) / float64(m.Served); perQuery > c.bound {
				t.Errorf("%s made %.3f %s per served query, want ≤ %.2f", run.name, perQuery, c.what, c.bound)
			}
		}
	}
}
