package trace

import (
	"slices"
	"testing"
	"time"

	"svdbench/internal/sim"
)

func TestDisabledTracerIsNoop(t *testing.T) {
	var tr *Tracer
	tr.Emit(0, Read, 4096) // nil receiver must not panic
	z := &Tracer{}
	z.Emit(0, Read, 4096)
	r, w, _, _ := z.Totals()
	if r != 0 || w != 0 {
		t.Error("disabled tracer recorded events")
	}
}

func TestTotalsAndHistogram(t *testing.T) {
	tr := NewTracer(false)
	for i := 0; i < 10; i++ {
		tr.Emit(sim.Time(i), Read, 4096)
	}
	tr.Emit(10, Read, 8192)
	tr.Emit(11, Write, 4096)
	r, w, rb, wb := tr.Totals()
	if r != 11 || w != 1 || rb != 10*4096+8192 || wb != 4096 {
		t.Errorf("totals = (%d,%d,%d,%d)", r, w, rb, wb)
	}
	h := tr.SizeHistogram()
	if len(h) != 2 || h[0].Bytes != 4096 || h[0].Count != 11 || h[1].Bytes != 8192 || h[1].Count != 1 {
		t.Errorf("histogram = %+v", h)
	}
	if f := tr.FractionOfSize(4096); f != 11.0/12.0 {
		t.Errorf("frac 4KiB = %v", f)
	}
}

func TestFractionOfSizeEmpty(t *testing.T) {
	tr := NewTracer(false)
	if tr.FractionOfSize(4096) != 0 {
		t.Error("empty tracer fraction must be 0")
	}
}

func TestTimelineBuckets(t *testing.T) {
	tr := NewTracer(false)
	sec := sim.Time(time.Second)
	tr.Emit(0, Read, 100)
	tr.Emit(sec/2, Read, 100)
	// Nothing in second 1.
	tr.Emit(2*sec+1, Read, 300)
	tl := tr.Timeline()
	if len(tl) != 3 {
		t.Fatalf("timeline length = %d, want 3 (gap bucket included)", len(tl))
	}
	if tl[0].ReadBytes != 200 || tl[1].ReadBytes != 0 || tl[2].ReadBytes != 300 {
		t.Errorf("bucket bytes = %d,%d,%d", tl[0].ReadBytes, tl[1].ReadBytes, tl[2].ReadBytes)
	}
	if tl[1].Start != sec {
		t.Errorf("bucket 1 start = %v", tl[1].Start)
	}
}

func TestTimelineEmpty(t *testing.T) {
	tr := NewTracer(false)
	if tl := tr.Timeline(); tl != nil {
		t.Errorf("empty timeline = %v, want nil", tl)
	}
}

func TestSetBucket(t *testing.T) {
	tr := NewTracer(false)
	tr.SetBucket(100 * time.Millisecond)
	tr.Emit(sim.Time(50*time.Millisecond), Read, 10)
	tr.Emit(sim.Time(150*time.Millisecond), Read, 20)
	tl := tr.Timeline()
	if len(tl) != 2 || tl[0].ReadBytes != 10 || tl[1].ReadBytes != 20 {
		t.Errorf("custom buckets wrong: %+v", tl)
	}
}

func TestSetBucketAfterEmitPanics(t *testing.T) {
	tr := NewTracer(false)
	tr.Emit(0, Read, 1)
	defer func() {
		if recover() == nil {
			t.Error("no panic on SetBucket after Emit")
		}
	}()
	tr.SetBucket(time.Millisecond)
}

func TestSummarize(t *testing.T) {
	tr := NewTracer(false)
	for i := 0; i < 1000; i++ {
		tr.Emit(sim.Time(i), Read, 4096)
	}
	s := tr.Summarize(time.Second)
	if s.ReadOps != 1000 || s.ReadIOPS != 1000 {
		t.Errorf("summary ops = %d iops = %v", s.ReadOps, s.ReadIOPS)
	}
	wantMiB := 1000 * 4096.0 / (1 << 20)
	if s.ReadMiBps < wantMiB*0.999 || s.ReadMiBps > wantMiB*1.001 {
		t.Errorf("MiB/s = %v, want %v", s.ReadMiBps, wantMiB)
	}
	if s.Frac4KiB != 1 {
		t.Errorf("frac = %v", s.Frac4KiB)
	}
	if s.MeanReadBytes != 4096 {
		t.Errorf("mean read bytes = %v", s.MeanReadBytes)
	}
	if s.String() == "" {
		t.Error("summary string empty")
	}
}

func TestSummarizeZeroWindow(t *testing.T) {
	tr := NewTracer(false)
	s := tr.Summarize(0)
	if s.ReadMiBps != 0 || s.ReadIOPS != 0 {
		t.Error("zero window must give zero rates")
	}
}

func TestBucketPointReadMiBps(t *testing.T) {
	p := BucketPoint{ReadBytes: 1 << 20}
	if got := p.ReadMiBps(time.Second); got != 1 {
		t.Errorf("ReadMiBps = %v, want 1", got)
	}
}

func TestOpString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Error("op strings wrong")
	}
}

func TestKeepRawRetainsOrder(t *testing.T) {
	tr := NewTracer(true)
	tr.Emit(5, Write, 1)
	tr.Emit(7, Read, 2)
	recs := tr.Records()
	if len(recs) != 2 || recs[0].At != 5 || recs[1].At != 7 {
		t.Errorf("records = %+v", recs)
	}
}

// TestRecordsOutOfOrder: records fed out of time and size order (an offline
// trace) still bucket and sort as in order.
func TestRecordsOutOfOrder(t *testing.T) {
	sec := sim.Time(time.Second)
	tr := Replay([]Record{
		{At: 2*sec + 1, Op: Read, Bytes: 300},
		{At: 0, Op: Write, Bytes: 8192},
		{At: sec / 2, Op: CacheHit, Bytes: 4096},
		{At: sec / 2, Op: Read, Bytes: 512},
	})
	want := []BucketPoint{
		{Start: 0, ReadBytes: 512, WriteBytes: 8192, CacheBytes: 4096},
		{Start: sec},
		{Start: 2 * sec, ReadBytes: 300},
	}
	if got := tr.Timeline(); !slices.Equal(got, want) {
		t.Errorf("timeline = %+v, want %+v", got, want)
	}
	wantH := []SizeBucket{{Bytes: 300, Count: 1}, {Bytes: 512, Count: 1}, {Bytes: 8192, Count: 1}}
	if got := tr.SizeHistogram(); !slices.Equal(got, wantH) {
		t.Errorf("histogram = %+v, want %+v", got, wantH)
	}
}

// TestEmitMemo: Emit's memo of the last bucket and size slot never changes
// where a request lands — not at a bucket's upper edge, not for an earlier
// time that prepends buckets (and so shifts the memoised index), and not for
// a new size inserted ahead of the memoised slot.
func TestEmitMemo(t *testing.T) {
	sec := sim.Time(time.Second)
	tr := NewTracer(false)
	tr.Emit(sec+1, Read, 4096)   // memo: bucket 1, size 4096
	tr.Emit(2*sec-1, Read, 4096) // last instant of bucket 1
	tr.Emit(2*sec, Read, 4096)   // the boundary: bucket 2
	tr.Emit(sec/2, Write, 4096)  // earlier: prepends bucket 0
	tr.Emit(2*sec+5, Read, 4096) // back to bucket 2, now at a shifted index
	tr.Emit(2*sec+6, Read, 512)  // new size ahead of the memoised slot
	tr.Emit(2*sec+7, Read, 4096) // the old size, at its shifted slot
	tr.EmitCacheHit(sec+2, 1, 4096)
	want := []BucketPoint{
		{Start: 0, WriteBytes: 4096},
		{Start: sec, ReadBytes: 2 * 4096, CacheBytes: 4096},
		{Start: 2 * sec, ReadBytes: 3*4096 + 512},
	}
	if got := tr.Timeline(); !slices.Equal(got, want) {
		t.Errorf("timeline = %+v, want %+v", got, want)
	}
	wantH := []SizeBucket{{Bytes: 512, Count: 1}, {Bytes: 4096, Count: 6}}
	if got := tr.SizeHistogram(); !slices.Equal(got, wantH) {
		t.Errorf("histogram = %+v, want %+v", got, wantH)
	}
}
