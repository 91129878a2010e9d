package trace

import (
	"testing"
	"time"

	"svdbench/internal/sim"
)

// TestCacheHitsAppearInTimeline: pages absorbed by the node cache must show
// up in the bandwidth timeline's CacheBytes series alongside device reads —
// a plot of total read demand has to include traffic the cache served.
func TestCacheHitsAppearInTimeline(t *testing.T) {
	tr := NewTracer(false)
	tr.SetBucket(time.Millisecond)
	tr.Emit(0, Read, 4096)
	tr.EmitCacheHit(0, 2, 8192)
	tr.EmitCacheHit(sim.Time(time.Millisecond), 1, 4096)
	tl := tr.Timeline()
	if len(tl) != 2 {
		t.Fatalf("timeline has %d buckets, want 2", len(tl))
	}
	if tl[0].ReadBytes != 4096 || tl[0].CacheBytes != 8192 {
		t.Errorf("bucket 0 = read %d cache %d, want 4096/8192", tl[0].ReadBytes, tl[0].CacheBytes)
	}
	if tl[1].ReadBytes != 0 || tl[1].CacheBytes != 4096 {
		t.Errorf("bucket 1 = read %d cache %d, want 0/4096", tl[1].ReadBytes, tl[1].CacheBytes)
	}
	if s := tr.Summarize(time.Second); s.CacheHits != 3 || s.CacheBytes != 12288 {
		t.Errorf("summary cache = (%d, %d), want (3, 12288)", s.CacheHits, s.CacheBytes)
	}
}

// TestCacheHitsAloneOpenTimeline: a trace consisting only of cache hits
// still has a timeline — the bug this guards against dropped EmitCacheHit
// from the first/last bookkeeping entirely.
func TestCacheHitsAloneOpenTimeline(t *testing.T) {
	tr := NewTracer(false)
	tr.SetBucket(time.Millisecond)
	tr.EmitCacheHit(sim.Time(3*time.Millisecond), 4, 16384)
	tl := tr.Timeline()
	if len(tl) != 1 || tl[0].CacheBytes != 16384 {
		t.Fatalf("cache-only timeline = %+v, want one 16 KiB bucket", tl)
	}
}

func TestCacheHitRecordsRetained(t *testing.T) {
	tr := NewTracer(true)
	tr.Emit(1, Read, 4096)
	tr.EmitCacheHit(2, 1, 4096)
	recs := tr.Records()
	if len(recs) != 2 || recs[1].Op != CacheHit || recs[1].At != 2 {
		t.Errorf("records = %+v, want trailing cache-hit at t=2", recs)
	}
	if CacheHit.String() != "C" {
		t.Errorf("CacheHit op string = %q, want C", CacheHit.String())
	}
}

// TestQueueDepthIntegration: NoteDepth edges integrate to the mean and max
// outstanding-request depth over the summary window.
func TestQueueDepthIntegration(t *testing.T) {
	tr := NewTracer(false)
	// Depth 2 for 250ms, 4 for 250ms, 0 for the remaining 500ms.
	tr.NoteDepth(0, 2)
	tr.NoteDepth(sim.Time(250*time.Millisecond), 4)
	tr.NoteDepth(sim.Time(500*time.Millisecond), 0)
	tr.FinishAt(sim.Time(time.Second))
	s := tr.Summarize(time.Second)
	if s.MaxQueueDepth != 4 {
		t.Errorf("max depth = %d, want 4", s.MaxQueueDepth)
	}
	want := 2*0.25 + 4*0.25
	if s.MeanQueueDepth < want-1e-9 || s.MeanQueueDepth > want+1e-9 {
		t.Errorf("mean depth = %v, want %v", s.MeanQueueDepth, want)
	}
	if s.DeviceBusyFrac < 0.5-1e-9 || s.DeviceBusyFrac > 0.5+1e-9 {
		t.Errorf("device busy frac = %v, want 0.5", s.DeviceBusyFrac)
	}
}

// TestCPUDeviceOverlap: the overlap fraction counts only intervals where the
// CPU and the device were busy simultaneously.
func TestCPUDeviceOverlap(t *testing.T) {
	tr := NewTracer(false)
	ms := func(n int) sim.Time { return sim.Time(time.Duration(n) * time.Millisecond) }
	// Device busy [0, 600ms); CPU busy [400ms, 1000ms): overlap 200ms.
	tr.NoteDepth(0, 1)
	tr.SetCPUBusy(ms(400), true)
	tr.NoteDepth(ms(600), 0)
	tr.SetCPUBusy(ms(1000), false)
	tr.FinishAt(ms(1000))
	s := tr.Summarize(time.Second)
	check := func(name string, got, want float64) {
		if got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("DeviceBusyFrac", s.DeviceBusyFrac, 0.6)
	check("CPUBusyFrac", s.CPUBusyFrac, 0.6)
	check("OverlapFrac", s.OverlapFrac, 0.2)
}

// TestOverlapNilSafety: depth/busy hooks must be no-ops on a nil tracer, the
// shape they are wired through when tracing is disabled.
func TestOverlapNilSafety(t *testing.T) {
	var tr *Tracer
	tr.NoteDepth(0, 3)
	tr.SetCPUBusy(0, true)
	tr.FinishAt(sim.Time(time.Second))
	tr.EmitCacheHit(0, 1, 4096)
}
