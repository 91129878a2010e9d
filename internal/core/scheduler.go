package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"svdbench/internal/par"
)

// cell is one unit of scheduler work: a keyed, self-contained measurement.
// The run closure writes its result into a caller-owned, cell-private slot,
// which is what makes the merge deterministic: no matter which worker
// finishes first, the caller reads the slots back in input order, so an
// 8-worker grid renders byte-identical tables to a sequential one. measure
// builds every grid's cells.
type cell struct {
	// key identifies the cell in progress reports and error messages
	// (e.g. "cohere-large/milvus-DISKANN/t=256").
	key string
	// run performs the measurement. It must only write state owned by this
	// cell and must honour ctx cancellation between expensive phases.
	run func(ctx context.Context) error
}

// Progress is one scheduler progress report, emitted after each completed
// cell. Reports are delivered sequentially (never concurrently), but from
// worker goroutines, so handlers that touch shared state need no locking
// against each other yet must not assume they run on the caller's goroutine.
type Progress struct {
	// Key is the completed cell's key.
	Key string
	// Done and Total count completed and scheduled cells.
	Done, Total int
	// Elapsed is host wall-clock time since the grid started.
	Elapsed time.Duration
	// ETA estimates the remaining wall-clock time at the observed mean
	// cell rate (zero until the first cell completes).
	ETA time.Duration
	// Err is the cell's error, nil on success.
	Err error
}

// Scheduler fans independent experiment cells out over a bounded number of
// host workers (par.For). It is the harness-level counterpart of the simulated
// testbed's virtual cores: `Workers` controls how many *simulations* run
// concurrently on the host, while RunConfig.Cores controls how many virtual
// CPUs exist *inside* each simulation — the two never interact, which is why
// results are independent of the worker count.
//
// Determinism guarantee: cells receive private result slots and the caller
// merges them in input order, so for a fixed cell list the output is
// byte-identical at any worker count, including 1 (the sequential harness).
type Scheduler struct {
	workers int

	mu       sync.Mutex
	progress func(Progress)
}

// NewScheduler returns a scheduler with the given worker-pool size.
// workers <= 0 selects runtime.GOMAXPROCS(0), one worker per schedulable
// host core.
func NewScheduler(workers int) *Scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Scheduler{workers: workers}
}

// Workers returns the pool size.
func (s *Scheduler) Workers() int { return s.workers }

// OnProgress installs a hook receiving one report per completed cell.
// Passing nil removes the hook.
func (s *Scheduler) OnProgress(fn func(Progress)) {
	s.mu.Lock()
	s.progress = fn
	s.mu.Unlock()
}

// Run executes the cells across the worker pool and blocks until every
// started cell has finished. The first cell error cancels the cells not yet
// started (cells already running finish or observe the cancelled context
// themselves); a cancelled ctx likewise stops the grid within one cell.
// Run returns the first error, wrapped with the failing cell's key.
func (s *Scheduler) Run(ctx context.Context, cells []cell) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n := len(cells)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		errMu    sync.Mutex
		firstErr error
		done     int
		start    = time.Now() //annlint:allow wallclock -- host-side progress timing, never enters the simulation
	)
	complete := func(key string, err error) {
		errMu.Lock()
		done++
		d, total := done, n
		elapsed := time.Since(start) //annlint:allow wallclock -- host-side progress timing, never enters the simulation
		var eta time.Duration
		if d > 0 && d < total {
			eta = time.Duration(int64(elapsed) / int64(d) * int64(total-d))
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cell %s: %w", key, err)
		}
		s.mu.Lock()
		hook := s.progress
		s.mu.Unlock()
		if hook != nil {
			hook(Progress{Key: key, Done: d, Total: total, Elapsed: elapsed, ETA: eta, Err: err})
		}
		errMu.Unlock()
	}

	par.For(s.workers, n, func(_, i int) {
		if runCtx.Err() != nil {
			return
		}
		err := cells[i].run(runCtx)
		complete(cells[i].key, err)
		if err != nil {
			cancel()
		}
	})
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// measure is the one experiment grid: it runs run once per point as a cell
// of s, named key(p) in progress reports and errors, and returns the results
// in point order. On failure it returns the first cell error, wrapped with
// that cell's key.
func measure[P, R any](ctx context.Context, s *Scheduler, pts []P, key func(P) string, run func(context.Context, P) (R, error)) ([]R, error) {
	out := make([]R, len(pts))
	cells := make([]cell, len(pts))
	for i, p := range pts {
		cells[i] = cell{key: key(p), run: func(ctx context.Context) (err error) {
			out[i], err = run(ctx, p)
			return err
		}}
	}
	if err := s.Run(ctx, cells); err != nil {
		return nil, err
	}
	return out, nil
}
