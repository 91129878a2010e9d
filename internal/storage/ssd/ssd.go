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
	slots   *sim.Semaphore
	busFree sim.Time
	tracer  *trace.Tracer

	nextPage    int64 // bump allocator for page addresses
	reads       int64
	writes      int64
	outstanding int        // requests submitted and not yet completed
	jobs        []*readJob // beam-read body pool (see ReadPages)
}

// New creates a device. cpu may be nil to model free submission.
func New(k *sim.Kernel, cpu *sim.CPU, cfg Config) *Device {
	if cfg.PageSize <= 0 || cfg.Slots <= 0 || cfg.BandwidthBps <= 0 {
		panic(fmt.Sprintf("ssd: invalid config %+v", cfg))
	}
	return &Device{
		cfg:   cfg,
		k:     k,
		cpu:   cpu,
		slots: sim.NewSemaphore(k, cfg.Name+"/slots", int64(cfg.Slots)),
	}
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
func (d *Device) Read(e *sim.Env, page int64, bytes int) {
	d.request(e, trace.Read, bytes)
	d.reads++
}

// Write performs one write request of the given size.
func (d *Device) Write(e *sim.Env, page int64, bytes int) {
	d.request(e, trace.Write, bytes)
	d.writes++
}

// readJob is the pooled process body of one beam read (see ReadPages).
type readJob struct {
	d    *Device
	page int64
}

// Run performs the read and returns the job to the device's pool (readJob
// implements sim.Runner).
func (r *readJob) Run(e *sim.Env) {
	r.d.Read(e, r.page, r.d.cfg.PageSize)
	r.d.jobs = append(r.d.jobs, r)
}

// ReadPages issues n page-sized read requests concurrently (a beam), and
// returns when all have completed. This is how DiskANN's beam search fetches
// the W frontier nodes of one iteration in parallel. The fork/join runs on
// pooled groups and runner bodies, so the steady state allocates nothing.
func (d *Device) ReadPages(e *sim.Env, pages []int64) {
	switch len(pages) {
	case 0:
		return
	case 1:
		d.Read(e, pages[0], d.cfg.PageSize)
		return
	}
	g := d.k.AllocGroup()
	for _, p := range pages {
		var j *readJob
		if n := len(d.jobs); n > 0 {
			j = d.jobs[n-1]
			d.jobs = d.jobs[:n-1]
		} else {
			j = &readJob{d: d}
		}
		j.page = p
		g.GoRunner("beam-read", j)
	}
	g.Wait(e)
	d.k.ReleaseGroup(g)
}

// request is the shared single-request path: per-request submission CPU,
// then the device-side service.
func (d *Device) request(e *sim.Env, op trace.Op, bytes int) {
	if bytes <= 0 {
		panic("ssd: request of non-positive size")
	}
	// Host-side submission cost competes for CPU cores.
	if d.cpu != nil && d.cfg.SubmitCPU > 0 {
		d.cpu.Use(e, d.cfg.SubmitCPU)
	}
	d.service(e, op, bytes)
}

// service is the device-side portion of one request — trace emission, queue
// depth accounting, internal-unit and bus contention, base latency — without
// any submission CPU. The Batcher charges one amortised submission cost for
// a whole coalesced batch and routes each request through here.
func (d *Device) service(e *sim.Env, op trace.Op, bytes int) {
	if bytes <= 0 {
		panic("ssd: request of non-positive size")
	}
	if d.tracer != nil {
		d.tracer.Emit(e.Now(), op, bytes)
	}
	d.outstanding++
	d.tracer.NoteDepth(e.Now(), d.outstanding)
	// Device-side service: wait for a free internal unit.
	d.slots.Acquire(e, 1)
	// Reserve the shared bus for the transfer.
	busBytes := float64(bytes)
	base := d.cfg.ReadLatency
	if op == trace.Write {
		busBytes *= d.cfg.WriteBusPenalty
		base = d.cfg.WriteLatency
	}
	busTime := sim.Duration(busBytes / d.cfg.BandwidthBps * 1e9)
	start := e.Now()
	if d.busFree > start {
		start = d.busFree
	}
	done := start.Add(busTime)
	d.busFree = done
	completion := done.Add(base)
	e.SleepUntil(completion)
	d.slots.Release(1)
	d.outstanding--
	d.tracer.NoteDepth(e.Now(), d.outstanding)
}

// Stats reports the number of read and write requests serviced.
func (d *Device) Stats() (reads, writes int64) { return d.reads, d.writes }
