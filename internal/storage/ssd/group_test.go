package ssd

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"svdbench/internal/sim"
	"svdbench/internal/trace"
)

// TestBeamRetireTieOrder pins where a beam's reads retire relative to another
// read submitted at the very instant of the beam's first completion. A 3-page
// beam starts at t=0; a probe read, served inline, lands on the beam's first
// completion. Scheduled before the beam submits, the probe's slot precedes
// that completion's, so it submits with all three beam reads outstanding
// (depth 4); scheduled after, the completion retires first (depth 3). On one
// core the beam splits: one read holds the core, two queue behind it. The
// values were recorded on the timer-per-read device, which refJob replays.
func TestBeamRetireTieOrder(t *testing.T) {
	for _, c := range []struct {
		name        string
		cores       int
		before      bool
		first       sim.Time // the beam's first completion
		maxDepth    int
		beam, probe sim.Time // completion instants
		integrals   string   // mean depth, device, CPU and overlap fractions
	}{
		{"free/before", 0, true, 49529, 4, 50587, 99058, "2.0160209170385026 1 0 0"},
		{"free/after", 0, false, 49529, 3, 50587, 99058, "2.0160209170385026 1 0 0"},
		{"1core/before", 1, true, 52612, 3, 58778, 105224, "1.8828024024937278 0.9707006006234319 0.11719759750627233 0.08789819812970424"},
		{"1core/after", 1, false, 52612, 3, 58778, 105224, "1.8828024024937278 0.9707006006234319 0.11719759750627233 0.08789819812970424"},
	} {
		reqs := []groupReq{{kind: kindBeam, n: 3}, {at: c.first, kind: kindInline, bytes: 4096, late: !c.before}}
		for _, path := range []struct {
			name string
			open func(*Device) asyncReader
		}{{"grouped", grouped}, {"per-read", perRead}} {
			t.Run(c.name+"/"+path.name, func(t *testing.T) {
				run := replayGroups(t, c.cores, DefaultConfig().Slots, reqs, path.open)
				if run.sum.MaxQueueDepth != c.maxDepth {
					t.Errorf("max queue depth %d, want %d", run.sum.MaxQueueDepth, c.maxDepth)
				}
				sum := run.sum
				if got := fmt.Sprint(sum.MeanQueueDepth, sum.DeviceBusyFrac, sum.CPUBusyFrac, sum.OverlapFrac); got != c.integrals {
					t.Errorf("depth and busy integrals %s, want %s", got, c.integrals)
				}
				if run.done[0] != c.beam || run.done[1] != c.probe {
					t.Errorf("beam completes at %d, probe at %d; want %d and %d", run.done[0], run.done[1], c.beam, c.probe)
				}
			})
		}
	}
}

// refJob is the per-read job readJob replaced, kept as FuzzReadGroups'
// reference: one pooled timer per read, serving a Request — a spawn, a
// doorbell end and a completion wake-up for every read.
type refJob struct {
	rr  *refReader
	t   *sim.Timer
	req Request
	j   *joint
}

func (r *refJob) Wake() {
	d := r.rr.d
	if !d.Serve(r.t, &r.req) {
		return
	}
	d.arrive(r.j, 1)
	r.j = nil
	r.rr.jobs = append(r.rr.jobs, r)
}

// refReader submits asynchronous reads to d through refJobs.
type refReader struct {
	d    *Device
	jobs []*refJob
}

func (rr *refReader) spawn(bytes int, j *joint) {
	var r *refJob
	if n := len(rr.jobs); n > 0 {
		r = rr.jobs[n-1]
		rr.jobs = rr.jobs[:n-1]
	} else {
		r = &refJob{rr: rr}
		r.t = sim.NewTimer(r)
	}
	r.req, r.j = ReadRequest(bytes), j
	rr.d.k.WakeAt(r.t, rr.d.k.Now())
}

func (rr *refReader) ReadAsync(page int64, bytes int, ev *sim.Event) {
	rr.spawn(bytes, rr.d.allocJoint(1, ev))
}

func (rr *refReader) ReadPagesAsync(pages []int64, ev *sim.Event) {
	j := rr.d.allocJoint(len(pages), ev)
	for range pages {
		rr.spawn(rr.d.cfg.PageSize, j)
	}
}

// asyncReader is the asynchronous read surface readJob and refJob share.
type asyncReader interface {
	ReadAsync(page int64, bytes int, ev *sim.Event)
	ReadPagesAsync(pages []int64, ev *sim.Event)
}

func grouped(d *Device) asyncReader { return d }
func perRead(d *Device) asyncReader { return &refReader{d: d} }

// groupReq is one request of a FuzzReadGroups stream, issued at virtual time
// at: an asynchronous beam of n pages or single read, or a write or read
// served inline on the issuing timer. A late request's wake-up is scheduled
// one nanosecond before its instant, after the reads submitted by then have
// reserved their completion slots; any other is scheduled before the run.
type groupReq struct {
	at    sim.Time
	kind  uint8
	n     int
	bytes int
	late  bool
}

const (
	kindBeam uint8 = iota
	kindRead
	kindWrite
	kindInline
)

// groupDriver issues one groupReq and records when it completes.
type groupDriver struct {
	k     *sim.Kernel
	d     *Device
	rd    asyncReader
	t     *sim.Timer
	req   groupReq
	phase uint8 // relay, issue, serve or await
	serve Request
	ev    *sim.Event
	done  *sim.Time
}

func (g *groupDriver) Wake() {
	for {
		switch g.phase {
		case 0:
			g.phase = 1
			g.k.WakeAt(g.t, g.req.at)
			return
		case 1:
			switch g.req.kind {
			case kindBeam:
				g.ev, g.phase = g.k.AllocEvent(), 3
				g.rd.ReadPagesAsync(make([]int64, g.req.n), g.ev)
			case kindRead:
				g.ev, g.phase = g.k.AllocEvent(), 3
				g.rd.ReadAsync(0, g.req.bytes, g.ev)
			case kindWrite:
				g.serve, g.phase = WriteRequest(g.req.bytes), 2
			default:
				g.serve, g.phase = ReadRequest(g.req.bytes), 2
			}
		case 2:
			if g.d.Serve(g.t, &g.serve) {
				*g.done = g.k.Now()
			}
			return
		default:
			if g.ev.WaitTimer(g.t) {
				g.k.ReleaseEvent(g.ev)
				*g.done = g.k.Now()
			}
			return
		}
	}
}

// decodeGroups turns fuzz input into a device shape — 0–4 cores (0: free
// submission), 1–64 slots — and a request stream. Two bytes make a request:
// its kind, size or beam width (1–8 pages), and its distance from the one
// before: the same instant, the k-th completion instant of an uncontended
// beam submitted there (with or without the doorbell), or a few microseconds.
func decodeGroups(data []byte) (cores, slots int, reqs []groupReq) {
	if len(data) < 2 {
		return 0, 1, nil
	}
	cores, slots = int(data[0]%5), 1+int(data[1]%64)
	cfg := DefaultConfig()
	bus := sim.Duration(float64(cfg.PageSize) / cfg.BandwidthBps * 1e9)
	var at sim.Time
	for i := 2; i+1 < len(data) && len(reqs) < 200; i += 2 {
		b, g := data[i], data[i+1]
		k := sim.Duration(g>>2) % 8
		switch g % 4 {
		case 1:
			at = at.Add(cfg.SubmitCPU + bus + cfg.ReadLatency + k*bus)
		case 2:
			at = at.Add(bus + cfg.ReadLatency + k*bus)
		case 3:
			at = at.Add(sim.Duration(g>>2) * 977)
		}
		reqs = append(reqs, groupReq{
			at: at, kind: b % 4, n: 1 + int(b>>2)%8, bytes: 4096 << (b >> 5 % 4), late: b&0x80 != 0 && at > 0,
		})
	}
	return cores, slots, reqs
}

// groupRun is what one replay of a FuzzReadGroups stream leaves behind.
type groupRun struct {
	done          []sim.Time
	reads, writes int64
	sum           trace.Summary
	busy          sim.Duration
	end           sim.Time
}

// replayGroups replays reqs on a fresh device through the reader open makes.
func replayGroups(t *testing.T, cores, slots int, reqs []groupReq, open func(*Device) asyncReader) groupRun {
	t.Helper()
	k := sim.NewKernel()
	var cpu *sim.CPU
	if cores > 0 {
		cpu = sim.NewCPU(k, cores)
	}
	cfg := DefaultConfig()
	cfg.Slots = slots
	d := New(k, cpu, cfg)
	tr := trace.NewTracer(false)
	d.Attach(tr)
	if cpu != nil {
		cpu.SetBusyNotify(tr.SetCPUBusy)
	}
	rd := open(d)
	run := groupRun{done: make([]sim.Time, len(reqs))}
	for i, req := range reqs {
		g := &groupDriver{k: k, d: d, rd: rd, req: req, phase: 1, done: &run.done[i]}
		g.t = sim.NewTimer(g)
		if req.late {
			g.phase = 0
			k.WakeAt(g.t, req.at-1)
		} else {
			k.WakeAt(g.t, req.at)
		}
	}
	run.end = k.RunAll()
	tr.FinishAt(run.end)
	checkDrained(t, d, nil, run.end)
	run.reads, run.writes = d.Stats()
	run.sum = tr.Summarize(sim.Duration(run.end))
	if cpu != nil {
		run.busy = cpu.BusyTime()
	}
	return run
}

// FuzzReadGroups holds readJob, which carries a beam's reads on one timer
// and retires all but the last without a wake-up, to the one-timer-per-read
// job it replaced: on any stream of beams, single reads and inline reads and
// writes, on any core and slot count, every request completes at the same
// instant, and the device's counters, the CPU's busy time and the tracer's
// summary — queue depth, busy and overlap integrals included — are
// identical.
func FuzzReadGroups(f *testing.F) {
	for seed := int64(1); seed <= 24; seed++ {
		r := rand.New(rand.NewSource(seed))
		data := make([]byte, 2+2*(4+r.Intn(60)))
		r.Read(data)
		f.Add(data)
	}
	// A free 3-page beam, then an inline read at its first completion,
	// scheduled before the beam submits and after (TestBeamRetireTieOrder).
	f.Add([]byte{0, 63, 8, 0, 3, 2})
	f.Add([]byte{0, 63, 8, 0, 0x83, 2})
	// One core, one slot: split beams, reads at their completions.
	f.Add([]byte{1, 0, 8, 0, 4, 0, 1, 0, 0x81, 1, 0x83, 0x21})
	f.Fuzz(func(t *testing.T, data []byte) {
		cores, slots, reqs := decodeGroups(data)
		got := replayGroups(t, cores, slots, reqs, grouped)
		want := replayGroups(t, cores, slots, reqs, perRead)
		if !slices.Equal(got.done, want.done) {
			for i := range reqs {
				if got.done[i] != want.done[i] {
					t.Fatalf("cores=%d slots=%d: request %d %+v completes at %v, reference %v",
						cores, slots, i, reqs[i], got.done[i], want.done[i])
				}
			}
		}
		got.done, want.done = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cores=%d slots=%d: run\n  %+v\nreference\n  %+v", cores, slots, got, want)
		}
	})
}
