package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"svdbench/internal/dataset"
	"svdbench/internal/vdb"
)

// grid runs n points of measure under s, the point index as the key's
// suffix, each cell calling run with its index.
func grid(ctx context.Context, s scheduler, n int, run func(ctx context.Context, i int) error) ([]int, error) {
	pts := make([]int, n)
	for i := range pts {
		pts[i] = i
	}
	return measure(ctx, s, pts, func(i int) string { return fmt.Sprintf("cell-%d", i) },
		func(ctx context.Context, i int) (int, error) { return i * i, run(ctx, i) })
}

func TestSchedulerRunsAllCells(t *testing.T) {
	const n = 100
	var ran [n]atomic.Bool
	got, err := grid(context.Background(), scheduler{workers: 4}, n, func(_ context.Context, i int) error {
		ran[i].Store(true)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if r != i*i || !ran[i].Load() {
			t.Errorf("slot %d = %d (ran %v), want %d", i, r, ran[i].Load(), i*i)
		}
	}
}

// TestSchedulerDefaultWorkers: a bench's grids run on its Workers, and on
// one worker per schedulable host core when Workers is not positive.
func TestSchedulerDefaultWorkers(t *testing.T) {
	b := NewBench(dataset.ScaleTiny, "")
	if got, want := b.sched().workers, runtime.GOMAXPROCS(0); got != want {
		t.Errorf("workers = %d, want GOMAXPROCS %d", got, want)
	}
	b.Workers = 7
	if got := b.sched().workers; got != 7 {
		t.Errorf("workers = %d, want 7", got)
	}
}

func TestSchedulerEmptyGrid(t *testing.T) {
	got, err := grid(context.Background(), scheduler{workers: 4}, 0, func(context.Context, int) error { return nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

// TestSchedulerErrorCancelsRemaining verifies the first cell error stops the
// grid: later cells never start, and the error comes back wrapped with the
// failing cell's key and matchable with errors.Is.
func TestSchedulerErrorCancelsRemaining(t *testing.T) {
	sentinel := errors.New("boom")
	var ran [5]bool
	_, err := grid(context.Background(), scheduler{workers: 1}, 5, func(_ context.Context, i int) error {
		ran[i] = true
		if i == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	if want := "cell cell-1: boom"; err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
	if !ran[0] || !ran[1] {
		t.Error("cells before the failure should have run")
	}
	for i := 2; i < 5; i++ {
		if ran[i] {
			t.Errorf("cell %d ran after the failure", i)
		}
	}
}

// TestSchedulerCancellationStopsWithinOneCell verifies a cancelled context
// stops the grid before the next cell starts.
func TestSchedulerCancellationStopsWithinOneCell(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran [5]bool
	_, err := grid(ctx, scheduler{workers: 1}, 5, func(_ context.Context, i int) error {
		ran[i] = true
		if i == 1 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i := 2; i < 5; i++ {
		if ran[i] {
			t.Errorf("cell %d ran after cancellation", i)
		}
	}
}

func TestSchedulerPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	_, err := grid(ctx, scheduler{workers: 1}, 1, func(context.Context, int) error { ran = true; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("cell ran under a pre-cancelled context")
	}
}

// TestSchedulerProgressReports: one report per cell, delivered one at a
// time even from four workers, counting up to the total, the last with no
// ETA left.
func TestSchedulerProgressReports(t *testing.T) {
	const n = 10
	var reports []Progress
	var inHook atomic.Int32
	s := scheduler{workers: 4, progress: func(p Progress) {
		if inHook.Add(1) != 1 {
			t.Error("progress reports overlap")
		}
		reports = append(reports, p)
		time.Sleep(100 * time.Microsecond)
		inHook.Add(-1)
	}}
	if _, err := grid(context.Background(), s, n, func(context.Context, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if len(reports) != n {
		t.Fatalf("got %d reports, want %d", len(reports), n)
	}
	for i, p := range reports {
		if p.Done != i+1 || p.Total != n {
			t.Errorf("report %d: Done/Total = %d/%d, want %d/%d", i, p.Done, p.Total, i+1, n)
		}
		if p.Err != nil {
			t.Errorf("report %d: unexpected error %v", i, p.Err)
		}
	}
	if last := reports[n-1]; last.ETA != 0 {
		t.Errorf("final report ETA = %v, want 0", last.ETA)
	}
}

// TestSchedulerDeterministicMerge is the tentpole guarantee: a grid run with
// 8 workers renders byte-identical output to the same grid with 1 worker.
// Two independent benches (separate caches, separate singleflights) run the
// same experiments at different worker counts and must agree byte for byte.
func TestSchedulerDeterministicMerge(t *testing.T) {
	render := func(workers int) string {
		b := NewBench(dataset.ScaleTiny, "")
		b.RunDefaults = RunConfig{Duration: 50 * time.Millisecond, Repetitions: 2, Cores: 4}
		b.Workers = workers
		var buf bytes.Buffer
		for _, id := range []string{"table1", "extA"} {
			exp, err := ExperimentByID(id)
			if err != nil {
				t.Fatal(err)
			}
			if err := exp.RunContext(context.Background(), b, &buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Errorf("8-worker output differs from sequential:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", seq, par)
	}
}

// TestRunContextCancelled verifies the measurement primitive rejects a
// cancelled context without running.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, nil, vdb.Traits{}, RunConfig{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunMatchesRunContext verifies the context-free wrapper and repeated
// parallel-repetition runs agree exactly (bit-identical aggregation).
func TestRunMatchesRunContext(t *testing.T) {
	b := NewBench(dataset.ScaleTiny, "")
	b.RunDefaults = RunConfig{Duration: 50 * time.Millisecond, Repetitions: 3, Cores: 4}
	st, err := b.Stack("cohere-small", milvusDiskANN())
	if err != nil {
		t.Fatal(err)
	}
	cfg := b.mergeDefaults(RunConfig{Threads: 4})
	a := Run(st.Execs, st.Setup.Engine, cfg)
	c, err := RunContext(context.Background(), st.Execs, st.Setup.Engine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics != c.Metrics {
		t.Errorf("Run and RunContext disagree:\n%+v\n%+v", a.Metrics, c.Metrics)
	}
	// And a second run is bit-identical (determinism across invocations).
	d, err := RunContext(context.Background(), st.Execs, st.Setup.Engine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Metrics != d.Metrics {
		t.Errorf("repeat run disagrees:\n%+v\n%+v", c.Metrics, d.Metrics)
	}
}

// TestBenchGridConcurrentStacks drives a bench grid through concurrent
// cells that all demand the same stacks, exercising the singleflight caches
// under the race detector.
func TestBenchGridConcurrentStacks(t *testing.T) {
	b := NewBench(dataset.ScaleTiny, "")
	b.RunDefaults = RunConfig{Duration: 30 * time.Millisecond, Repetitions: 1, Cores: 4}
	b.Workers = 8
	var builds int64
	_, err := measure(context.Background(), b.sched(), make([]int, 16), func(int) string { return "stack" },
		func(ctx context.Context, _ int) (*Stack, error) {
			st, err := b.StackContext(ctx, "cohere-small", milvusDiskANN())
			if err != nil {
				return nil, err
			}
			if st == nil || len(st.Execs) == 0 {
				return nil, errors.New("empty stack")
			}
			atomic.AddInt64(&builds, 1)
			return st, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if builds != 16 {
		t.Errorf("ran %d cells, want 16", builds)
	}
}

// TestMeasureOrderAndError: the grid helper returns results in point order
// however its workers interleave, and the first failing point's error
// wrapped with that cell's key.
func TestMeasureOrderAndError(t *testing.T) {
	pts := make([]int, 40)
	for i := range pts {
		pts[i] = i
	}
	key := func(p int) string { return fmt.Sprintf("p%d", p) }
	boom := errors.New("boom")
	for _, workers := range []int{1, 8} {
		got, err := measure(context.Background(), scheduler{workers: workers}, pts, key, func(_ context.Context, p int) (string, error) {
			// Early points take longest, so with several workers later
			// points finish first.
			time.Sleep(time.Duration(len(pts)-p) * 50 * time.Microsecond)
			return key(p), nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, r := range got {
			if r != key(i) {
				t.Fatalf("workers=%d: result %d = %q, want %q", workers, i, r, key(i))
			}
		}

		_, err = measure(context.Background(), scheduler{workers: workers}, pts, key, func(_ context.Context, p int) (string, error) {
			if p == 3 {
				return "", boom
			}
			return key(p), nil
		})
		if !errors.Is(err, boom) || err.Error() != "cell p3: boom" {
			t.Errorf("workers=%d: err = %v, want the failing point's error wrapped as %q", workers, err, "cell p3: boom")
		}
	}
}
