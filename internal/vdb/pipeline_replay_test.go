package vdb

import (
	"testing"
	"time"

	"svdbench/internal/index"
	"svdbench/internal/sim"
	"svdbench/internal/storage/ssd"
	"svdbench/internal/trace"
)

// eachPolicy runs fn as one subtest per submission policy: per-request (the
// device charges every read its own doorbell) and coalesced (an ssd.Batcher).
func eachPolicy(t *testing.T, fn func(t *testing.T, coalesce bool)) {
	t.Run("per-request", func(t *testing.T) { fn(t, false) })
	t.Run("coalesced", func(t *testing.T) { fn(t, true) })
}

// runTimed replays one QueryExec on a fresh neutral engine under the given
// policy and returns the elapsed virtual time plus the tracer (raw records
// kept) that watched the device.
func runTimed(t *testing.T, qe *QueryExec, coalesce bool) (sim.Duration, *trace.Tracer) {
	t.Helper()
	h := newEngineHarness(Traits{Name: "neutral"})
	if coalesce {
		h.eng.SetBatcher(ssd.NewBatcher(h.dev))
	}
	tr := trace.NewTracer(true)
	h.dev.Attach(tr)
	var elapsed sim.Duration
	h.query(0, qe, func(err error, lat sim.Duration) {
		if err != nil {
			t.Errorf("query failed: %v", err)
		}
		elapsed = lat
	})
	tr.FinishAt(h.run(t))
	return elapsed, tr
}

// pipelinedExec is a two-hop beam query where hop 1 prefetches hop 2's
// pages; stripPrefetch is the same schedule without the speculation.
func pipelinedExec() *QueryExec {
	return &QueryExec{Segments: [][]index.Step{{
		{
			Work:     burn(200 * time.Microsecond),
			Pages:    []int64{0, 1},
			Prefetch: []index.PrefetchRun{{Pages: []int64{10, 11}}},
		},
		{Work: burn(200 * time.Microsecond), Pages: []int64{10, 11}},
	}}}
}

func stripPrefetch(qe *QueryExec) *QueryExec {
	out := &QueryExec{IDs: qe.IDs, Stats: qe.Stats}
	for _, seg := range qe.Segments {
		steps := make([]index.Step, len(seg))
		for i, s := range seg {
			s.Prefetch = nil
			steps[i] = s
		}
		out.Segments = append(out.Segments, steps)
	}
	return out
}

// TestReplayPrefetchOverlapsIO: a prefetched schedule finishes strictly
// faster than the same schedule without speculation — hop 2's read overlaps
// hop 2's CPU — while the device sees identical traffic (the prefetch read
// replaces the demand read, it does not duplicate it).
func TestReplayPrefetchOverlapsIO(t *testing.T) {
	eachPolicy(t, func(t *testing.T, coalesce bool) {
		qe := pipelinedExec()
		base, baseTr := runTimed(t, stripPrefetch(qe), coalesce)
		pf, pfTr := runTimed(t, qe, coalesce)
		if pf >= base {
			t.Errorf("prefetched replay took %v, not below synchronous %v", pf, base)
		}
		bOps, _, bBytes, _ := baseTr.Totals()
		pOps, _, pBytes, _ := pfTr.Totals()
		if bOps != pOps || bBytes != pBytes {
			t.Errorf("prefetched device traffic (%d ops, %d B) differs from synchronous (%d ops, %d B)",
				pOps, pBytes, bOps, bBytes)
		}
	})
}

// TestReplayPrefetchJoinWaitsForResidual: when the demand arrives before the
// prefetch lands, the query waits only for the residual latency — total time
// is still below the fully synchronous schedule, and no page is read twice.
func TestReplayPrefetchJoinWaitsForResidual(t *testing.T) {
	// Tiny CPU burst: the hop-2 demand arrives long before the ~100µs read
	// completes, so the join path (Wait on an unfired event) is exercised.
	qe := &QueryExec{Segments: [][]index.Step{{
		{Work: burn(time.Microsecond), Pages: []int64{0}, Prefetch: []index.PrefetchRun{{Pages: []int64{10}}}},
		{Work: burn(time.Microsecond), Pages: []int64{10}},
	}}}
	eachPolicy(t, func(t *testing.T, coalesce bool) {
		base, baseTr := runTimed(t, stripPrefetch(qe), coalesce)
		pf, pfTr := runTimed(t, qe, coalesce)
		if pf >= base {
			t.Errorf("joined replay took %v, not below synchronous %v", pf, base)
		}
		bOps, _, _, _ := baseTr.Totals()
		pOps, _, _, _ := pfTr.Totals()
		if bOps != 2 || pOps != 2 {
			t.Errorf("read ops = %d sync / %d prefetched, want 2/2 (no duplicate reads)", bOps, pOps)
		}
	})
}

// TestReplayContiguousPrefetchJoin: SPANN-style contiguous runs join as one
// read keyed by their first page.
func TestReplayContiguousPrefetchJoin(t *testing.T) {
	qe := &QueryExec{Segments: [][]index.Step{{
		{
			Work:       burn(100 * time.Microsecond),
			Pages:      []int64{0, 1, 2, 3},
			Contiguous: true,
			Prefetch:   []index.PrefetchRun{{Pages: []int64{8, 9, 10, 11}, Contiguous: true}},
		},
		{Work: burn(100 * time.Microsecond), Pages: []int64{8, 9, 10, 11}, Contiguous: true},
	}}}
	eachPolicy(t, func(t *testing.T, coalesce bool) {
		base, baseTr := runTimed(t, stripPrefetch(qe), coalesce)
		pf, pfTr := runTimed(t, qe, coalesce)
		if pf >= base {
			t.Errorf("contiguous prefetched replay took %v, not below synchronous %v", pf, base)
		}
		bOps, _, bBytes, _ := baseTr.Totals()
		pOps, _, pBytes, _ := pfTr.Totals()
		if bOps != pOps || bBytes != pBytes {
			t.Errorf("device traffic differs: %d/%d ops, %d/%d bytes", bOps, pOps, bBytes, pBytes)
		}
	})
}

// TestReplayRepeatedPrefetchJoinsLatest: when a query prefetches the same
// first page twice, the later prefetch replaces the earlier one, so a demand
// for that page joins the later read — here still in flight, issued after
// 100µs of CPU — rather than the earlier one, which landed long before.
func TestReplayRepeatedPrefetchJoinsLatest(t *testing.T) {
	qe := &QueryExec{Segments: [][]index.Step{{
		{Work: burn(time.Microsecond), Pages: []int64{0}, Prefetch: []index.PrefetchRun{{Pages: []int64{10}}}},
		{Work: burn(100 * time.Microsecond), Prefetch: []index.PrefetchRun{{Pages: []int64{10}}}},
		{Work: burn(time.Microsecond), Pages: []int64{10}},
	}}}
	eachPolicy(t, func(t *testing.T, coalesce bool) {
		elapsed, tr := runTimed(t, qe, coalesce)
		// Step 0 waits one read, step 2 another begun after step 1's CPU.
		if floor := 102*time.Microsecond + 2*ssd.DefaultConfig().ReadLatency; elapsed < floor {
			t.Errorf("query took %v, below %v: the demand joined the earlier prefetch", elapsed, floor)
		}
		if ops, _, _, _ := tr.Totals(); ops != 3 {
			t.Errorf("device read ops = %d, want 3 (demand + two prefetches, no demand re-read)", ops)
		}
	})
}

// TestReplayUnusedPrefetchCostsBandwidthNotLatency: a prefetch nothing
// demands adds device reads (the wasted-speculation bandwidth tax) without
// blocking query completion.
func TestReplayUnusedPrefetchCostsBandwidthNotLatency(t *testing.T) {
	qe := &QueryExec{Segments: [][]index.Step{{
		{Work: burn(50 * time.Microsecond), Pages: []int64{0}, Prefetch: []index.PrefetchRun{{Pages: []int64{99}}}},
	}}}
	eachPolicy(t, func(t *testing.T, coalesce bool) {
		base, _ := runTimed(t, stripPrefetch(qe), coalesce)
		pf, tr := runTimed(t, qe, coalesce)
		if ops, _, _, _ := tr.Totals(); ops != 2 {
			t.Errorf("device read ops = %d, want 2 (demand + wasted prefetch)", ops)
		}
		// The speculative read may share the demand's doorbell, never its
		// service time.
		if pf > base+ssd.DefaultConfig().BatchSubmitCPU {
			t.Errorf("query with a wasted prefetch took %v, without it %v", pf, base)
		}
	})
}

// TestReplayDemandAheadOfPrefetch: a step's demand reads reach the device
// before the speculative reads the same step recorded, under either policy.
// Reads complete in the order they reach the serial bus, so this is what
// keeps the step's last demand page finishing before its first prefetch.
func TestReplayDemandAheadOfPrefetch(t *testing.T) {
	// The prefetch is a 3-page contiguous run, so its request is told apart
	// from the 4 KiB demand reads by size.
	for _, tc := range []struct {
		name   string
		demand index.Step
	}{
		{"beam", index.Step{Pages: []int64{0, 1, 2, 3}}},
		{"single", index.Step{Pages: []int64{0}}},
		{"contiguous", index.Step{Pages: []int64{0, 1}, Contiguous: true}},
	} {
		tc.demand.Prefetch = []index.PrefetchRun{{Pages: []int64{10, 11, 12}, Contiguous: true}}
		qe := &QueryExec{Segments: [][]index.Step{{tc.demand}}}
		t.Run(tc.name, func(t *testing.T) {
			eachPolicy(t, func(t *testing.T, coalesce bool) {
				_, tr := runTimed(t, qe, coalesce)
				recs := tr.Records()
				if len(recs) < 2 {
					t.Fatalf("device saw %d requests", len(recs))
				}
				if last := recs[len(recs)-1]; last.Bytes != 3*4096 {
					t.Errorf("requests reached the device as %+v: the prefetch is not last", recs)
				}
			})
		})
	}
}

// TestReplayThroughBatcher: routing the same prefetched schedule through the
// coalescer must not change the bytes read or break completion.
func TestReplayThroughBatcher(t *testing.T) {
	qe := pipelinedExec()
	_, directTr := runTimed(t, qe, false)
	_, batchedTr := runTimed(t, qe, true)
	dOps, _, dBytes, _ := directTr.Totals()
	bOps, _, bBytes, _ := batchedTr.Totals()
	if dOps != bOps || dBytes != bBytes {
		t.Errorf("batched device traffic (%d ops, %d B) differs from direct (%d ops, %d B)",
			bOps, bBytes, dOps, dBytes)
	}
}
