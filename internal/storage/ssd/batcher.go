package ssd

import (
	"svdbench/internal/sim"
	"svdbench/internal/trace"
)

// Batcher is the coalesced submission policy: it gathers read requests from
// concurrent simulated searches into shared device submissions, the
// cross-query half of the async pipeline. Instead of every query paying the
// full SubmitCPU per 4 KiB read, requests outstanding at the same instant
// are drained by one dispatcher in batches of up to the device queue
// depth (Config.Slots), paying SubmitCPU once per batch plus BatchSubmitCPU
// per additional request — io_uring-style doorbell batching. The device
// underneath is the same one the per-request policy drives (Device.submit),
// so coalescing alters CPU cost and submission timing, never which bytes are
// read, and coalesced reads contend with per-request reads and writes for
// the same units and bus.
//
// No request has a timer of its own: the dispatcher is the only one paying
// CPU, so each completion time is known the moment its batch is submitted,
// and because read completions are monotone a single completer walks them in
// order, firing each request's event at its instant. Both are timers (see
// step), so the coalescer runs no process at all.
//
// The steady state allocates nothing per request: pending requests and
// computed completions live in reusable head-compacted slices, and joints
// recycle through the device's free list.
//
// A Batcher is bound to one device and must only be used from simulation
// processes of that device's kernel.
type Batcher struct {
	d *Device

	pending  []batchReq
	head     int // pending[:head] has been dispatched
	batch    int // the batch being charged is pending[batch:head]
	cost     sim.Duration
	disp     *sim.Timer
	dispStep step
	bell     sim.Burst // the charged batch's submission CPU

	completions []completion
	chead       int // completions[:chead] have been waited for
	cpl         *sim.Timer
	cplStep     step

	batches  int64
	requests int64
}

// batchReq is one queued read waiting for dispatch.
type batchReq struct {
	bytes int
	j     *joint
}

// completion is one submitted request's finish time.
type completion struct {
	at sim.Time
	j  *joint
}

// completer is the Callback of the batcher's completer timer (Batcher's own
// Wake is the dispatcher's).
type completer struct{ b *Batcher }

func (c completer) Wake() { c.b.complete() }

// NewBatcher creates a batcher over the device.
func NewBatcher(d *Device) *Batcher {
	b := &Batcher{d: d}
	b.disp, b.cpl = sim.NewTimer(b), sim.NewTimer(completer{b})
	return b
}

// enqueue appends one request and ensures the dispatcher is running.
func (b *Batcher) enqueue(bytes int, j *joint) {
	if bytes <= 0 {
		panic("ssd: batched read of non-positive size")
	}
	b.pending = append(b.pending, batchReq{bytes: bytes, j: j})
	if b.dispStep == idle {
		b.dispStep = spawned
		b.d.k.WakeAt(b.disp, b.d.k.Now())
	}
}

// Read submits one read request through the coalescer and blocks the calling
// process until the device completes it.
func (b *Batcher) Read(e *sim.Env, page int64, bytes int) {
	ev := b.d.k.AllocEvent()
	b.ReadAsync(page, bytes, ev)
	b.d.await(e, ev)
}

// ReadPages submits one page-sized request per page (a beam) through the
// coalescer and blocks until all of them complete.
func (b *Batcher) ReadPages(e *sim.Env, pages []int64) {
	if len(pages) == 0 {
		return
	}
	ev := b.d.k.AllocEvent()
	b.ReadPagesAsync(pages, ev)
	b.d.await(e, ev)
}

// ReadAsync submits one read without blocking: ev fires when the device
// completes it. The caller owns ev's lifecycle and must not release it
// before it fires — this is how the replay engine issues look-ahead
// prefetches without a process per speculative read.
func (b *Batcher) ReadAsync(page int64, bytes int, ev *sim.Event) {
	b.enqueue(bytes, b.d.allocJoint(1, ev))
}

// ReadPagesAsync is ReadPages without the blocking wait: ev fires when the
// whole beam has completed. The replay engine submits a step's demand beam
// this way so the step's look-ahead prefetches can be enqueued behind it —
// demand transfers keep their place ahead of speculative ones on the bus —
// before the query parks on ev.
func (b *Batcher) ReadPagesAsync(pages []int64, ev *sim.Event) {
	if len(pages) == 0 {
		panic("ssd: async beam of zero pages")
	}
	j := b.d.allocJoint(len(pages), ev)
	for range pages {
		b.enqueue(b.d.cfg.PageSize, j)
	}
}

// complete is the completer's step: it reports the head completion, whose
// instant it was woken at, then sleeps to the next one (monotone: they are
// all reads). Completions appended while it sleeps are picked up in order;
// the queue storage is reset — not reallocated — once drained.
func (b *Batcher) complete() {
	if b.cplStep == flash {
		b.d.retire(b.d.k.Now(), trace.Read)
		b.d.arrive(b.completions[b.chead].j)
		b.chead++
	}
	if b.chead == len(b.completions) {
		b.completions, b.chead = b.completions[:0], 0
		b.cplStep = idle
		return
	}
	if b.chead >= 4096 {
		// Under continuous load the FIFO never fully drains; slide the
		// unconsumed tail down so the backing array stays bounded.
		b.completions = b.completions[:copy(b.completions, b.completions[b.chead:])]
		b.chead = 0
	}
	b.cplStep = flash
	b.d.k.WakeAt(b.cpl, b.completions[b.chead].at)
}

// Wake is the dispatcher's step (Batcher is its timer's Callback): it drains
// the pending queue in batches of up to Slots requests. Each batch charges
// its amortised submission CPU — across wake-ups, the batch kept as
// pending[batch:head] — then every request is submitted to the device and its
// completion queued for the completer; the dispatcher moves on to the next
// batch without waiting for completions, so the device queue actually fills.
// Requests arriving while a batch's CPU charge runs are picked up by later
// batches; the queue storage is reset — not reallocated — once drained.
func (b *Batcher) Wake() {
	if b.dispStep == doorbell {
		if !b.d.cpu.Burn(b.disp, &b.bell, b.cost, b.d.k) {
			return
		}
		b.submitBatch()
	}
	for b.head < len(b.pending) {
		if b.head >= 4096 {
			// Same tail compaction as the completer: under continuous load
			// the dispatcher may never observe an empty queue.
			b.pending = b.pending[:copy(b.pending, b.pending[b.head:])]
			b.head = 0
		}
		n := min(len(b.pending)-b.head, b.d.cfg.Slots)
		b.batch = b.head
		b.head += n
		b.batches++
		b.requests += int64(n)
		b.cost = b.d.cfg.SubmitCPU + sim.Duration(n-1)*b.d.cfg.BatchSubmitCPU
		if b.d.cpu != nil {
			b.dispStep = doorbell
			if !b.d.cpu.Burn(b.disp, &b.bell, b.cost, b.d.k) {
				return
			}
		}
		b.submitBatch()
	}
	b.pending, b.head = b.pending[:0], 0
	b.dispStep = idle
}

// submitBatch submits the charged batch and makes sure the completer is
// walking its completions.
func (b *Batcher) submitBatch() {
	now := b.d.k.Now()
	for _, req := range b.pending[b.batch:b.head] {
		at := b.d.submit(now, trace.Read, req.bytes)
		b.completions = append(b.completions, completion{at: at, j: req.j})
	}
	if b.cplStep == idle {
		b.cplStep = spawned
		b.d.k.WakeAt(b.cpl, now)
	}
}

// Stats reports the number of dispatched batches and the requests they
// carried; requests/batches is the achieved coalescing factor.
func (b *Batcher) Stats() (batches, requests int64) { return b.batches, b.requests }
