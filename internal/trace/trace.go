// Package trace implements block-layer I/O tracing for the simulated storage
// device, playing the role bpftrace's block_rq_issue probe plays in the
// paper (Sec. III-A): for every request issued to the device it records the
// operation type and request size at issue time.
//
// Because a 30-second run at hundreds of MiB/s issues millions of requests,
// the tracer aggregates on the fly — per-second bandwidth buckets, a request
// size histogram, and running totals — and only retains raw records when
// explicitly asked to.
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"svdbench/internal/sim"
)

// Op is a block-layer operation type.
type Op uint8

const (
	Read Op = iota
	Write
	// CacheHit is a logical read the node cache served without a device
	// request. It appears in the timeline and raw records so plots can show
	// total logical read traffic, but never in the request size histogram or
	// the read/write totals — it is not a block request.
	CacheHit
)

func (o Op) String() string {
	switch o {
	case Read:
		return "R"
	case Write:
		return "W"
	default:
		return "C"
	}
}

// Record is one block-layer request at issue time.
type Record struct {
	At    sim.Time
	Op    Op
	Bytes int
}

// Tracer collects block-layer request events. The zero value is a disabled
// tracer whose Emit is a no-op; create an active one with NewTracer.
// Tracers are used from simulation processes only and need no locking (the
// DES runs one process at a time).
type Tracer struct {
	enabled   bool
	keepRaw   bool
	records   []Record
	bucket    sim.Duration  // bucket width for the bandwidth timeline
	bkt       []bucketBytes // timeline buckets: bkt[i] is bucket bktBase+i
	bktBase   int64
	sizeHist  []SizeBucket // request sizes, ascending
	readOps   int64
	writeOps  int64
	readByte  int64
	writeByte int64
	cacheHits int64 // pages served by the node cache instead of the device
	cacheByte int64
	first     sim.Time
	last      sim.Time
	any       bool

	// Queue-depth and busy-overlap accounting. The device reports every
	// outstanding-request count change through NoteDepth and the CPU its
	// idle↔busy edges through SetCPUBusy; the tracer integrates both over
	// virtual time so Summarize can report mean/max queue depth and how much
	// of the run the device and the CPU were busy — separately and together
	// (the overlap a pipelined search exists to create).
	overlapAt   sim.Time
	depth       int
	depthInt    float64 // ∫ depth dt, in depth·nanoseconds
	maxDepth    int
	cpuBusy     bool
	devBusy     bool
	cpuBusyDur  sim.Duration
	devBusyDur  sim.Duration
	bothBusyDur sim.Duration
}

// NewTracer creates an active tracer with a per-second bandwidth timeline.
// If keepRaw is true, every raw record is retained as well.
func NewTracer(keepRaw bool) *Tracer {
	return &Tracer{enabled: true, keepRaw: keepRaw, bucket: time.Second}
}

// bucketBytes is one timeline bucket's bytes by op.
type bucketBytes struct{ read, write, cache int64 }

// bucketAt returns the timeline bucket holding virtual time at, extending the
// series to reach it.
func (t *Tracer) bucketAt(at sim.Time) *bucketBytes {
	b := int64(at) / int64(t.bucket)
	if len(t.bkt) == 0 {
		t.bktBase = b
	}
	if b < t.bktBase {
		t.bkt = append(make([]bucketBytes, t.bktBase-b, t.bktBase-b+int64(len(t.bkt))), t.bkt...)
		t.bktBase = b
	}
	i := b - t.bktBase
	if n := i + 1 - int64(len(t.bkt)); n > 0 {
		t.bkt = append(t.bkt, make([]bucketBytes, n)...)
	}
	return &t.bkt[i]
}

// sizeIndex returns where the histogram holds (or would hold) bytes.
func (t *Tracer) sizeIndex(bytes int) (int, bool) {
	return slices.BinarySearchFunc(t.sizeHist, bytes, func(b SizeBucket, n int) int { return cmp.Compare(b.Bytes, n) })
}

// SetBucket changes the timeline bucket width (default one second). It must
// be called before any Emit.
func (t *Tracer) SetBucket(d sim.Duration) {
	if t.any {
		panic("trace: SetBucket after Emit")
	}
	t.bucket = d
}

// Emit records a block request at virtual time at.
func (t *Tracer) Emit(at sim.Time, op Op, bytes int) {
	if t == nil || !t.enabled {
		return
	}
	if !t.any || at < t.first {
		t.first = at
	}
	if at > t.last {
		t.last = at
	}
	t.any = true
	bkt := t.bucketAt(at)
	switch op {
	case Read:
		t.readOps++
		t.readByte += int64(bytes)
		bkt.read += int64(bytes)
	case Write:
		t.writeOps++
		t.writeByte += int64(bytes)
		bkt.write += int64(bytes)
	}
	i, ok := t.sizeIndex(bytes)
	if !ok {
		t.sizeHist = slices.Insert(t.sizeHist, i, SizeBucket{Bytes: bytes})
	}
	t.sizeHist[i].Count++
	if t.keepRaw {
		t.records = append(t.records, Record{At: at, Op: op, Bytes: bytes})
	}
}

// EmitCacheHit records pages a node cache served instead of the device at
// virtual time at. Cache hits are logical reads, not block requests: they
// get their own timeline series (BucketPoint.CacheBytes) and raw-record op
// (CacheHit), but stay out of the request size histogram and the read/write
// totals so device-level statistics (Frac4KiB, IOPS) are unaffected.
func (t *Tracer) EmitCacheHit(at sim.Time, pages, bytes int) {
	if t == nil || !t.enabled {
		return
	}
	t.cacheHits += int64(pages)
	t.cacheByte += int64(bytes)
	if !t.any || at < t.first {
		t.first = at
	}
	if at > t.last {
		t.last = at
	}
	t.any = true
	t.bucketAt(at).cache += int64(bytes)
	if t.keepRaw {
		t.records = append(t.records, Record{At: at, Op: CacheHit, Bytes: bytes})
	}
}

// advance integrates the current busy/depth state up to virtual time at.
func (t *Tracer) advance(at sim.Time) {
	if at <= t.overlapAt {
		return
	}
	dt := at.Sub(t.overlapAt)
	t.overlapAt = at
	t.depthInt += float64(t.depth) * float64(dt)
	if t.cpuBusy {
		t.cpuBusyDur += dt
	}
	if t.devBusy {
		t.devBusyDur += dt
	}
	if t.cpuBusy && t.devBusy {
		t.bothBusyDur += dt
	}
}

// NoteDepth records the device's outstanding-request count changing to depth
// at virtual time at. The device is considered busy whenever depth > 0.
func (t *Tracer) NoteDepth(at sim.Time, depth int) {
	if t == nil || !t.enabled {
		return
	}
	t.advance(at)
	t.depth = depth
	t.devBusy = depth > 0
	if depth > t.maxDepth {
		t.maxDepth = depth
	}
}

// SetCPUBusy records the CPU going busy or idle at virtual time at; wire it
// to sim.CPU.SetBusyNotify.
func (t *Tracer) SetCPUBusy(at sim.Time, busy bool) {
	if t == nil || !t.enabled {
		return
	}
	t.advance(at)
	t.cpuBusy = busy
}

// FinishAt closes the busy/depth integration at the end of a run. Call it
// once, after the simulation finishes and before Summarize, so the final
// idle tail (or a still-busy edge) is accounted.
func (t *Tracer) FinishAt(at sim.Time) {
	if t == nil || !t.enabled {
		return
	}
	t.advance(at)
}

// Totals reports aggregate operation counts and bytes.
func (t *Tracer) Totals() (readOps, writeOps, readBytes, writeBytes int64) {
	return t.readOps, t.writeOps, t.readByte, t.writeByte
}

// Records returns the raw records (only populated when keepRaw was set).
func (t *Tracer) Records() []Record { return t.records }

// BucketPoint is one interval of the bandwidth timeline. CacheBytes counts
// logical read bytes the node cache served in the interval — traffic that
// never reached the device but that a plot of total read demand must show.
type BucketPoint struct {
	Start      sim.Time
	ReadBytes  int64
	WriteBytes int64
	CacheBytes int64
}

// ReadMiBps returns the read bandwidth of the bucket in MiB/s given the
// bucket width.
func (p BucketPoint) ReadMiBps(width sim.Duration) float64 {
	return float64(p.ReadBytes) / (1 << 20) / width.Seconds()
}

// Timeline returns the bandwidth series ordered by time, including empty
// buckets between the first and last events so plots show gaps.
func (t *Tracer) Timeline() []BucketPoint {
	if !t.any {
		return nil
	}
	lo := int64(t.first) / int64(t.bucket)
	hi := int64(t.last) / int64(t.bucket)
	out := make([]BucketPoint, 0, hi-lo+1)
	for b := lo; b <= hi; b++ {
		bkt := t.bkt[b-t.bktBase]
		out = append(out, BucketPoint{
			Start:      sim.Time(b * int64(t.bucket)),
			ReadBytes:  bkt.read,
			WriteBytes: bkt.write,
			CacheBytes: bkt.cache,
		})
	}
	return out
}

// BucketWidth returns the timeline bucket width.
func (t *Tracer) BucketWidth() sim.Duration { return t.bucket }

// SizeBucket is one entry of the request size histogram.
type SizeBucket struct {
	Bytes int
	Count int64
}

// SizeHistogram returns request sizes sorted ascending.
func (t *Tracer) SizeHistogram() []SizeBucket {
	return append(make([]SizeBucket, 0, len(t.sizeHist)), t.sizeHist...)
}

// FractionOfSize returns the fraction of all requests with exactly the given
// size — used to verify the paper's O-15 (>99.99 % of requests are 4 KiB).
func (t *Tracer) FractionOfSize(bytes int) float64 {
	total := t.readOps + t.writeOps
	if total == 0 {
		return 0
	}
	i, ok := t.sizeIndex(bytes)
	if !ok {
		return 0
	}
	return float64(t.sizeHist[i].Count) / float64(total)
}

// Summary holds the derived statistics of a traced window.
type Summary struct {
	Window        sim.Duration
	ReadOps       int64
	WriteOps      int64
	ReadBytes     int64
	WriteBytes    int64
	ReadMiBps     float64
	WriteMiBps    float64
	ReadIOPS      float64
	Frac4KiB      float64
	MeanReadBytes float64
	// CacheHits and CacheBytes count pages (and their bytes) the node
	// cache served instead of the device; CacheHitRate is the byte
	// fraction of would-be reads the cache absorbed. All zero when no
	// cache was in play.
	CacheHits    int64
	CacheBytes   int64
	CacheHitRate float64
	// MeanQueueDepth and MaxQueueDepth describe the device's outstanding
	// request count over the window (time-weighted mean; NVMe queue depth).
	MeanQueueDepth float64
	MaxQueueDepth  int
	// DeviceBusyFrac, CPUBusyFrac and OverlapFrac are the fractions of the
	// window the device had requests outstanding, the CPU had a burst on a
	// core, and both at once. A synchronous beam search alternates the two
	// (overlap ≈ 0); a pipelined one overlaps them.
	DeviceBusyFrac float64
	CPUBusyFrac    float64
	OverlapFrac    float64
}

// Summarize computes throughput statistics over the given virtual window.
func (t *Tracer) Summarize(window sim.Duration) Summary {
	s := Summary{
		Window:     window,
		ReadOps:    t.readOps,
		WriteOps:   t.writeOps,
		ReadBytes:  t.readByte,
		WriteBytes: t.writeByte,
		Frac4KiB:   t.FractionOfSize(4096),
		CacheHits:  t.cacheHits,
		CacheBytes: t.cacheByte,
	}
	if t.cacheByte+t.readByte > 0 {
		s.CacheHitRate = float64(t.cacheByte) / float64(t.cacheByte+t.readByte)
	}
	s.MaxQueueDepth = t.maxDepth
	if window > 0 {
		secs := window.Seconds()
		s.ReadMiBps = float64(t.readByte) / (1 << 20) / secs
		s.WriteMiBps = float64(t.writeByte) / (1 << 20) / secs
		s.ReadIOPS = float64(t.readOps) / secs
		s.MeanQueueDepth = t.depthInt / float64(window)
		s.DeviceBusyFrac = float64(t.devBusyDur) / float64(window)
		s.CPUBusyFrac = float64(t.cpuBusyDur) / float64(window)
		s.OverlapFrac = float64(t.bothBusyDur) / float64(window)
	}
	if t.readOps > 0 {
		s.MeanReadBytes = float64(t.readByte) / float64(t.readOps)
	}
	return s
}

func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "window=%v reads=%d (%.1f MiB/s, %.0f IOPS) writes=%d (%.1f MiB/s) 4KiB=%.4f%%",
		s.Window, s.ReadOps, s.ReadMiBps, s.ReadIOPS, s.WriteOps, s.WriteMiBps, 100*s.Frac4KiB)
	if s.CacheHits > 0 {
		fmt.Fprintf(&b, " cache=%d pages (%.1f%% hit)", s.CacheHits, 100*s.CacheHitRate)
	}
	return b.String()
}
