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

func TestSchedulerRunsAllCells(t *testing.T) {
	const n = 100
	results := make([]int, n)
	cells := make([]cell, n)
	for i := 0; i < n; i++ {
		i := i
		cells[i] = cell{
			key: fmt.Sprintf("cell-%d", i),
			run: func(ctx context.Context) error {
				results[i] = i * i
				return nil
			},
		}
	}
	if err := NewScheduler(4).Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	for i, got := range results {
		if got != i*i {
			t.Errorf("slot %d = %d, want %d", i, got, i*i)
		}
	}
}

func TestSchedulerDefaultWorkers(t *testing.T) {
	if got, want := NewScheduler(0).Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Workers() = %d, want GOMAXPROCS %d", got, want)
	}
	if got := NewScheduler(7).Workers(); got != 7 {
		t.Errorf("Workers() = %d, want 7", got)
	}
}

func TestSchedulerEmptyGrid(t *testing.T) {
	if err := NewScheduler(4).Run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerErrorCancelsRemaining verifies the first cell error stops the
// grid: later cells never start, and the error comes back wrapped with the
// failing cell's key and matchable with errors.Is.
func TestSchedulerErrorCancelsRemaining(t *testing.T) {
	sentinel := errors.New("boom")
	var ran [5]bool
	cells := make([]cell, 5)
	for i := range cells {
		i := i
		cells[i] = cell{
			key: fmt.Sprintf("cell-%d", i),
			run: func(ctx context.Context) error {
				ran[i] = true
				if i == 1 {
					return sentinel
				}
				return nil
			},
		}
	}
	err := NewScheduler(1).Run(context.Background(), cells)
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
	cells := make([]cell, 5)
	for i := range cells {
		i := i
		cells[i] = cell{
			key: fmt.Sprintf("cell-%d", i),
			run: func(ctx context.Context) error {
				ran[i] = true
				if i == 1 {
					cancel()
				}
				return nil
			},
		}
	}
	err := NewScheduler(1).Run(ctx, cells)
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
	err := NewScheduler(1).Run(ctx, []cell{{key: "x", run: func(context.Context) error { ran = true; return nil }}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("cell ran under a pre-cancelled context")
	}
}

func TestSchedulerProgressReports(t *testing.T) {
	const n = 10
	var reports []Progress
	cells := make([]cell, n)
	for i := range cells {
		cells[i] = cell{key: fmt.Sprintf("cell-%d", i), run: func(context.Context) error { return nil }}
	}
	s := NewScheduler(4)
	s.OnProgress(func(p Progress) { reports = append(reports, p) })
	if err := s.Run(context.Background(), cells); err != nil {
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
		got, err := measure(context.Background(), NewScheduler(workers), pts, key, func(_ context.Context, p int) (string, error) {
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

		_, err = measure(context.Background(), NewScheduler(workers), pts, key, func(_ context.Context, p int) (string, error) {
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
