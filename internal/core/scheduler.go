package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"svdbench/internal/par"
)

// Progress is one grid progress report, emitted after each completed cell.
// Reports are delivered sequentially (never concurrently), but from worker
// goroutines, so handlers that touch shared state need no locking against
// each other yet must not assume they run on the caller's goroutine.
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

// scheduler is how a grid's cells run on the host: over workers host
// goroutines (par.For), reporting each completed cell to progress (nil
// silences). It is the harness-level counterpart of the simulated testbed's
// virtual cores: workers controls how many *simulations* run concurrently on
// the host, while RunConfig.Cores controls how many virtual CPUs exist
// *inside* each simulation — the two never interact, which is why results
// are independent of the worker count.
type scheduler struct {
	workers  int
	progress func(Progress)
}

// measure is the one experiment grid: it runs run once per point as a cell
// of s, named key(p) in progress reports and errors, and returns the results
// in point order. Each cell writes only its own result slot, so for a fixed
// point list the output is byte-identical at any worker count, including 1.
//
// The first cell error cancels the cells not yet started (cells already
// running finish or observe the cancelled context themselves); a cancelled
// ctx likewise stops the grid within one cell. On failure measure returns
// the first cell error, wrapped with that cell's key.
func measure[P, R any](ctx context.Context, s scheduler, pts []P, key func(P) string, run func(context.Context, P) (R, error)) ([]R, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]R, len(pts))
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		firstErr error
		done     int
		start    = time.Now() //annlint:allow wallclock -- host-side progress timing, never enters the simulation
	)
	complete := func(key string, err error) {
		mu.Lock()
		defer mu.Unlock()
		done++
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cell %s: %w", key, err)
		}
		if s.progress == nil {
			return
		}
		elapsed := time.Since(start) //annlint:allow wallclock -- host-side progress timing, never enters the simulation
		var eta time.Duration
		if done < len(pts) {
			eta = time.Duration(int64(elapsed) / int64(done) * int64(len(pts)-done))
		}
		s.progress(Progress{Key: key, Done: done, Total: len(pts), Elapsed: elapsed, ETA: eta, Err: err})
	}

	par.For(s.workers, len(pts), func(_, i int) {
		if runCtx.Err() != nil {
			return
		}
		k := key(pts[i])
		var err error
		out[i], err = run(runCtx, pts[i])
		complete(k, err)
		if err != nil {
			cancel()
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
