// Package ssd models a modern NVMe flash SSD inside the discrete-event
// simulation. The model has four calibrated components:
//
//   - a fixed per-request base service latency (flash read/program time plus
//     controller overhead),
//   - a bounded number of internal parallel units ("slots": channels × dies),
//     which caps random IOPS at slots/latency,
//   - a shared transfer bus with a fixed byte bandwidth, which caps large
//     sequential throughput, and
//   - a per-request host CPU submission cost, which makes I/O compete with
//     query compute for cores — the mechanism behind the paper's premise
//     that saturating an NVMe SSD "requires a large amount of CPU
//     resources" (Sec. I, refs [63], [64]).
//
// DefaultConfig is calibrated to the Samsung 990 Pro envelope the paper
// measured with fio (Sec. III-A): ~324 KIOPS from one core, 1.3 MIOPS with
// 64 concurrent 4 KiB requests, and 7.2 GiB/s of 128 KiB sequential reads.
//
// There is one device core and two ways to submit to it. The first three
// components are Device.submit, which turns (now, op, bytes) into a
// completion time and is the only code that knows them; reads and writes,
// whoever issues them, contend there. The fourth is a submission policy:
// per request (Device.Read, Write, ReadPages and their Async forms: every
// request rings its own doorbell for SubmitCPU on a core) or coalesced
// (Batcher: one doorbell per batch of reads outstanding together).
package ssd

import (
	"fmt"
	"time"

	"svdbench/internal/sim"
	"svdbench/internal/trace"
)

// Config parameterises the device model.
type Config struct {
	// Name identifies the device in reports.
	Name string
	// PageSize is the device's native access granularity in bytes.
	PageSize int
	// ReadLatency is the base service latency of a read request.
	ReadLatency sim.Duration
	// WriteLatency is the base service latency of a write request
	// (lower than reads: writes land in the controller's cache).
	WriteLatency sim.Duration
	// Slots is the device's internal parallelism; at most this many
	// requests are serviced concurrently.
	Slots int
	// BandwidthBps is the shared-bus transfer bandwidth in bytes/second.
	BandwidthBps float64
	// SubmitCPU is the host CPU time consumed to submit and complete one
	// request through the kernel storage stack.
	SubmitCPU sim.Duration
	// BatchSubmitCPU is the marginal host CPU cost of each additional
	// request submitted in one coalesced batch (see Batcher): the first
	// request of a batch pays the full SubmitCPU (syscall + doorbell), the
	// rest only the per-SQE marginal cost. Zero means extra batched
	// submissions are free.
	BatchSubmitCPU sim.Duration
	// WriteBusPenalty scales the bus occupancy of writes, modelling
	// NAND read/write interference (Sec. VIII): a penalty of 3 means one
	// written byte occupies the bus as long as three read bytes.
	WriteBusPenalty float64
}

// DefaultConfig returns the Samsung 990 Pro-like calibration used in all
// experiments.
func DefaultConfig() Config {
	return Config{
		Name:            "sim-990pro",
		PageSize:        4096,
		ReadLatency:     49 * time.Microsecond,
		WriteLatency:    12 * time.Microsecond,
		Slots:           64,
		BandwidthBps:    7.2 * (1 << 30),
		SubmitCPU:       3083 * time.Nanosecond,
		BatchSubmitCPU:  385 * time.Nanosecond,
		WriteBusPenalty: 3,
	}
}

// Device is a simulated NVMe SSD attached to a kernel and (optionally) a CPU
// whose cycles request submission consumes.
type Device struct {
	cfg     Config
	k       *sim.Kernel
	cpu     *sim.CPU // may be nil: submission then costs no CPU
	busFree sim.Time
	tracer  *trace.Tracer

	// When each of the Slots internal units frees up, split by the op it last
	// served (indexed by trace.Read, trace.Write). The bus is serial and the
	// base latency fixed per op, so completions are monotone among reads and
	// among writes — each FIFO is sorted — but not across them: a 12 µs write
	// overtakes the 49 µs read ahead of it, which is why one FIFO would not
	// do. The earliest-free unit is the smaller of the two heads.
	busy [2]unitFIFO

	// The device's monotone wake-up streams, which bypass the kernel's event
	// heap (see sim.Lane). bell holds per-request doorbell ends: each is
	// SubmitCPU after the instant its core was granted, and the clock never
	// goes back. done holds completions by op: busFree never decreases and
	// the base latency is fixed per op, so submit's completion times never
	// decrease within an op.
	bell *sim.Lane
	done [2]*sim.Lane

	nextPage    int64                      // bump allocator for page addresses
	retired     [2]int64                   // requests completed, by op
	outstanding int                        // requests submitted and not yet completed
	jobs        []*readJob                 // asynchronous per-request read pool
	looping     int                        // Jobs' closed loops not yet finished
	joints      []*joint                   // completion count-down pool
	made        struct{ jobs, joints int } // pooled objects ever created (drain check)
}

// unitFIFO is a fixed ring of unit free-up times in non-decreasing order.
type unitFIFO struct {
	at      []sim.Time
	head, n int
}

func (f *unitFIFO) push(at sim.Time) {
	i := f.head + f.n
	if i >= len(f.at) {
		i -= len(f.at)
	}
	f.at[i] = at
	f.n++
}

func (f *unitFIFO) pop() sim.Time {
	at := f.at[f.head]
	f.head++
	if f.head == len(f.at) {
		f.head = 0
	}
	f.n--
	return at
}

// New creates a device. cpu may be nil to model free submission.
func New(k *sim.Kernel, cpu *sim.CPU, cfg Config) *Device {
	if cfg.PageSize <= 0 || cfg.Slots <= 0 || cfg.BandwidthBps <= 0 {
		panic(fmt.Sprintf("ssd: invalid config %+v", cfg))
	}
	d := &Device{cfg: cfg, k: k, cpu: cpu, bell: k.NewLane(), done: [2]*sim.Lane{k.NewLane(), k.NewLane()}}
	for op := range d.busy {
		d.busy[op].at = make([]sim.Time, cfg.Slots)
	}
	d.busy[trace.Read].n = cfg.Slots // every unit free since time zero
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Attach installs a tracer that observes every request at issue time.
// Passing nil detaches.
func (d *Device) Attach(t *trace.Tracer) { d.tracer = t }

// Tracer returns the attached tracer (nil when none is attached); the replay
// engine uses it to report node-cache hits that never reach the device.
func (d *Device) Tracer() *trace.Tracer { return d.tracer }

// Alloc reserves npages contiguous pages and returns the first page number.
// The device does not store payload bytes — object contents live in the
// simulation's host memory — so allocation only assigns addresses for
// realistic traces.
func (d *Device) Alloc(npages int64) int64 {
	p := d.nextPage
	d.nextPage += npages
	return p
}

// Read performs one read request of the given size, blocking the calling
// process for the full device service time. Page is the starting page
// address (used only for accounting realism).
func (d *Device) Read(e *sim.Env, page int64, bytes int) { d.request(e, trace.Read, bytes) }

// Write performs one write request of the given size.
func (d *Device) Write(e *sim.Env, page int64, bytes int) { d.request(e, trace.Write, bytes) }

// Calibration is one closed-loop fio job set of the paper's raw-device
// calibration: Jobs jobs on Cores cores, each keeping one Bytes-sized read in
// flight. Paper is the paper's reading.
type Calibration struct {
	Name               string
	Cores, Jobs, Bytes int
	Paper              string
}

// TableI holds the paper's three fio calibration points (Sec. III-A, Table
// I), which DefaultConfig reproduces.
var TableI = []Calibration{
	{"4KiB randread, 1 core, qd256", 1, 256, 4096, "324.3 KIOPS"},
	{"4KiB randread, 4 cores, qd64", 4, 64, 4096, "1.3 MIOPS"},
	{"128KiB seqread, 32 threads", 20, 32, 128 * 1024, "7.2 GiB/s"},
}

// Jobs starts n closed-loop raw-device jobs, fio-style: each issues one
// request of the given size at a time (a write if write is set, else a read)
// until the clock reaches deadline, and reports every request's latency to
// done, including those that complete after the deadline. Each job is a
// timer serving its requests through Serve. The caller runs the kernel, then
// calls check, which returns an error if a job is still unfinished: the
// simulation wedged.
func (d *Device) Jobs(n, bytes int, write bool, deadline sim.Time, done func(lat sim.Duration)) (check func() error) {
	req := ReadRequest(bytes)
	if write {
		req = WriteRequest(bytes)
	}
	for i := 0; i < n && d.k.Now() < deadline; i++ {
		f := &fioJob{d: d, req: req, start: d.k.Now(), deadline: deadline, done: done}
		f.t = sim.NewTimer(f)
		d.looping++
		d.k.WakeAt(f.t, d.k.Now())
	}
	return func() error {
		if d.looping > 0 {
			return fmt.Errorf("ssd: %d fio jobs unfinished at t=%v", d.looping, d.k.Now())
		}
		return nil
	}
}

// request is the per-request submission policy: the full submission CPU,
// then the device's service time, in the calling process.
func (d *Device) request(e *sim.Env, op trace.Op, bytes int) {
	// Host-side submission cost competes for CPU cores.
	if d.cpu != nil && d.cfg.SubmitCPU > 0 {
		d.cpu.Use(e, d.cfg.SubmitCPU)
	}
	d.done[op].SleepUntil(e, d.submit(e.Now(), op, bytes))
	d.retire(e.Now(), op)
}

// submit is the device's physics, the only code that knows units, bus and
// base latency: it accepts one request at virtual time now and returns its
// completion time. The request waits for the earliest-free internal unit,
// then for the serial transfer bus, then takes the op's base latency. Every
// submit is paired with a retire at the returned time.
func (d *Device) submit(now sim.Time, op trace.Op, bytes int) sim.Time {
	if bytes <= 0 {
		panic("ssd: request of non-positive size")
	}
	if d.tracer != nil {
		d.tracer.Emit(now, op, bytes)
	}
	d.outstanding++
	d.tracer.NoteDepth(now, d.outstanding)
	// Take the unit that frees first (free already if that instant is past).
	r, w := &d.busy[trace.Read], &d.busy[trace.Write]
	first := r
	if r.n == 0 || (w.n > 0 && w.at[w.head] < r.at[r.head]) {
		first = w
	}
	start := max(now, first.pop(), d.busFree)
	busBytes := float64(bytes)
	base := d.cfg.ReadLatency
	if op == trace.Write {
		busBytes *= d.cfg.WriteBusPenalty
		base = d.cfg.WriteLatency
	}
	d.busFree = start.Add(sim.Duration(busBytes / d.cfg.BandwidthBps * 1e9))
	done := d.busFree.Add(base)
	d.busy[op].push(done)
	return done
}

// retire is submit's completion-side accounting.
func (d *Device) retire(now sim.Time, op trace.Op) {
	d.retired[op]++
	d.outstanding--
	d.tracer.NoteDepth(now, d.outstanding)
}

// joint counts a multi-request submission down to one caller-owned event,
// fired when the last request completes.
type joint struct {
	left int
	ev   *sim.Event
}

func (d *Device) allocJoint(n int, ev *sim.Event) *joint {
	var j *joint
	if l := len(d.joints); l > 0 {
		j = d.joints[l-1]
		d.joints = d.joints[:l-1]
	} else {
		j = &joint{}
		d.made.joints++
	}
	j.left, j.ev = n, ev
	return j
}

// arrive marks one of the joint's requests complete.
func (d *Device) arrive(j *joint) {
	j.left--
	if j.left == 0 {
		j.ev.Fire()
		j.ev = nil
		d.joints = append(d.joints, j)
	}
}

// await parks the caller on a pooled event and recycles it.
func (d *Device) await(e *sim.Env, ev *sim.Event) {
	ev.Wait(e)
	d.k.ReleaseEvent(ev)
}

// step is where one of the coalescer's timers — its dispatcher or its
// completer — stands between wake-ups.
type step uint8

const (
	idle     step = iota // not scheduled: nothing left to do
	spawned              // woken at the instant it was started
	doorbell             // running a burst of submission CPU
	flash                // waiting for a device completion
)

// Request is one per-request read or write in timer form: Read or Write for a
// state machine, which serves it with Serve from its own timer's wake-ups, so
// the doorbell rings in the owner's wake-up as Read rings it in the calling
// process. The zero value is not a request; make one with ReadRequest or
// WriteRequest.
type Request struct {
	op    trace.Op
	bytes int
	bell  sim.Burst // the doorbell's submission CPU
	flash bool      // submitted: waiting for the device's completion
}

// ReadRequest returns a read request of the given size.
func ReadRequest(bytes int) Request { return Request{op: trace.Read, bytes: bytes} }

// WriteRequest returns a write request of the given size.
func WriteRequest(bytes int) Request { return Request{op: trace.Write, bytes: bytes} }

// Serve advances r on behalf of timer t and reports whether the device has
// completed it: call it where a process would call Read or Write, and again at
// each of t's wake-ups until it reports true. It takes the (at, seq) slots
// request takes: the doorbell's SubmitCPU on a core, queueing FIFO when all
// are busy, then the device's service time. The doorbell ends and the
// completions wake t through the device's lanes.
func (d *Device) Serve(t *sim.Timer, r *Request) bool {
	if r.flash {
		r.flash = false
		d.retire(d.k.Now(), r.op)
		return true
	}
	if d.cpu != nil && !d.cpu.Burn(t, &r.bell, d.cfg.SubmitCPU, d.bell) {
		return false
	}
	r.flash = true
	d.done[r.op].WakeAt(t, d.submit(d.k.Now(), r.op, r.bytes))
	return false
}

// fioJob is one of Jobs' closed loops: a timer serving one request at a
// time, the one it started at start, until the clock reaches deadline. It
// lives for the whole run, so unlike a readJob it is not pooled.
type fioJob struct {
	d               *Device
	t               *sim.Timer
	req             Request
	start, deadline sim.Time
	done            func(lat sim.Duration)
}

func (f *fioJob) Wake() {
	d := f.d
	for d.Serve(f.t, &f.req) {
		f.done(d.k.Now().Sub(f.start))
		if d.k.Now() >= f.deadline {
			d.looping--
			return
		}
		f.start = d.k.Now()
	}
}

// readJob is one asynchronous per-request read. It cannot be computed at the
// call like a coalesced one: its doorbell occupies a simulated core for
// SubmitCPU, queueing FIFO when all are busy, and a beam's W doorbells
// ringing on W cores at once is what the calibration rests on. So it serves a
// Request on a pooled timer of its own.
type readJob struct {
	d   *Device
	t   *sim.Timer
	req Request
	j   *joint
}

func (r *readJob) Wake() {
	if !r.d.Serve(r.t, &r.req) {
		return
	}
	r.d.arrive(r.j)
	r.j = nil
	r.d.jobs = append(r.d.jobs, r)
}

// spawnRead starts one read at the current instant. Its first step runs on
// its own wake-up, after those already scheduled for this instant, as the
// process it replaces did (see TestBeamTieOrderDiffers).
func (d *Device) spawnRead(bytes int, j *joint) {
	var r *readJob
	if n := len(d.jobs); n > 0 {
		r = d.jobs[n-1]
		d.jobs = d.jobs[:n-1]
	} else {
		r = &readJob{d: d}
		r.t = sim.NewTimer(r)
		d.made.jobs++
	}
	r.req, r.j = ReadRequest(bytes), j
	d.k.WakeAt(r.t, d.k.Now())
}

// ReadAsync submits one read without blocking the caller: ev fires when the
// device completes it. The caller owns ev and must not release it before it
// fires.
func (d *Device) ReadAsync(page int64, bytes int, ev *sim.Event) {
	d.spawnRead(bytes, d.allocJoint(1, ev))
}

// ReadPagesAsync submits one page-sized read per page (a beam) without
// blocking the caller: ev fires when the whole beam has completed.
func (d *Device) ReadPagesAsync(pages []int64, ev *sim.Event) {
	if len(pages) == 0 {
		panic("ssd: async beam of zero pages")
	}
	j := d.allocJoint(len(pages), ev)
	for range pages {
		d.spawnRead(d.cfg.PageSize, j)
	}
}

// ReadPages issues n page-sized read requests concurrently (a beam), and
// returns when all have completed. This is how DiskANN's beam search fetches
// the W frontier nodes of one iteration in parallel.
func (d *Device) ReadPages(e *sim.Env, pages []int64) {
	if len(pages) == 0 {
		return
	}
	ev := d.k.AllocEvent()
	d.ReadPagesAsync(pages, ev)
	d.await(e, ev)
}

// Stats reports the number of read and write requests serviced.
func (d *Device) Stats() (reads, writes int64) {
	return d.retired[trace.Read], d.retired[trace.Write]
}
