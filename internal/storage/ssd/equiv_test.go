package ssd

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"svdbench/internal/sim"
	"svdbench/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// streamReq is one request of a random stream: a single request of bytes, or
// (pages > 1) a beam of page-sized reads, issued at virtual time at. Every
// fifth single request is marked a write; read-only replays read it instead.
type streamReq struct {
	at    sim.Duration
	bytes int
	pages int
	write bool
}

// randomStream draws a seeded request stream: bursts of 1…3×Slots requests
// (so the device queue is sometimes slack and sometimes oversubscribed)
// separated by idle gaps, each request a 4 KiB–128 KiB read or a 2–8 page
// beam. Requests inside a burst arrive nanoseconds apart or at the very same
// instant, except that a beam never shares its instant with another request
// (see TestBeamTieOrderDiffers).
func randomStream(r *rand.Rand, slots int) []streamReq {
	var reqs []streamReq
	var now sim.Duration
	prevBeam := false
	singles := 0
	for burst := 0; burst < 12; burst++ {
		now += time.Duration(r.Intn(400)) * time.Microsecond
		n := 1 + r.Intn(3*slots)
		for i := 0; i < n; i++ {
			beam := r.Intn(3) == 0
			if gap := r.Intn(50) - 25; gap > 0 {
				now += time.Duration(gap)
			} else if beam || prevBeam {
				now++
			}
			prevBeam = beam
			req := streamReq{at: now, bytes: 4096 << r.Intn(6)}
			if beam {
				req.pages = 2 + r.Intn(7)
			} else {
				singles++
				req.write = singles%5 == 0
			}
			reqs = append(reqs, req)
		}
	}
	return reqs
}

// pageReader is the blocking read surface of both submission policies.
type pageReader interface {
	Read(e *sim.Env, page int64, bytes int)
	ReadPages(e *sim.Env, pages []int64)
}

// streamRun is what one replay of a stream leaves behind.
type streamRun struct {
	done []sim.Time // per-request completion times
	dev  *Device
	cpu  *sim.CPU // nil when submission is free
	tr   *trace.Tracer
	end  sim.Time
}

// replayStream replays the stream through the reader made by open on a fresh
// device with the given core count (0: no CPU, submission is free). Requests
// marked write go through Device.Write when writes is set and are read
// otherwise.
func replayStream(t *testing.T, cfg Config, cores int, reqs []streamReq, writes bool, open func(*Device) pageReader) streamRun {
	t.Helper()
	k := sim.NewKernel()
	run := streamRun{done: make([]sim.Time, len(reqs)), tr: trace.NewTracer(false)}
	if cores > 0 {
		run.cpu = sim.NewCPU(k, cores)
	}
	run.dev = New(k, run.cpu, cfg)
	run.dev.Attach(run.tr)
	rd := open(run.dev)
	for i, req := range reqs {
		i, req := i, req
		k.Spawn("req", func(e *sim.Env) {
			e.Sleep(req.at)
			switch {
			case req.pages > 1:
				rd.ReadPages(e, make([]int64, req.pages))
			case req.write && writes:
				run.dev.Write(e, 0, req.bytes)
			default:
				rd.Read(e, 0, req.bytes)
			}
			run.done[i] = e.Now()
		})
	}
	run.end = k.RunAll()
	run.tr.FinishAt(run.end)
	b, _ := rd.(*Batcher)
	checkDrained(t, run.dev, b, run.end)
	return run
}

func direct(d *Device) pageReader    { return d }
func coalesced(d *Device) pageReader { return NewBatcher(d) }

// completions is a read-only, CPU-less replay's completion times.
func completions(t *testing.T, cfg Config, reqs []streamReq, open func(*Device) pageReader) []sim.Time {
	return replayStream(t, cfg, 0, reqs, false, open).done
}

// TestStreamsGolden pins the device's virtual-time behaviour on seeded random
// streams, one line per configuration: a digest of every request's
// completion time, the device's counters, the submission CPU burnt and the
// deepest queue seen. Reads and writes share the device on the per-request
// lines; the coalesced lines are read-only. The file was recorded on the
// slot-semaphore device that preceded the single analytic core, CPU-contended
// configurations included, so the core is held to that model's answers.
func TestStreamsGolden(t *testing.T) {
	var b strings.Builder
	for _, slots := range []int{4, 64} {
		for _, cores := range []int{0, 2, 20} {
			for seed := int64(1); seed <= 5; seed++ {
				cfg := DefaultConfig()
				cfg.Slots = slots
				reqs := randomStream(rand.New(rand.NewSource(seed)), slots)
				for _, policy := range []struct {
					name   string
					writes bool
					open   func(*Device) pageReader
				}{{"per-request", true, direct}, {"coalesced", false, coalesced}} {
					run := replayStream(t, cfg, cores, reqs, policy.writes, policy.open)
					h := sha256.New()
					for _, at := range run.done {
						binary.Write(h, binary.LittleEndian, int64(at))
					}
					reads, writes := run.dev.Stats()
					var busy sim.Duration
					if run.cpu != nil {
						busy = run.cpu.BusyTime()
					}
					fmt.Fprintf(&b, "slots=%d cores=%d seed=%d %s: sha256=%x reads=%d writes=%d cpu_busy=%d max_depth=%d end=%d\n",
						slots, cores, seed, policy.name, h.Sum(nil)[:12], reads, writes,
						int64(busy), run.tr.Summarize(0).MaxQueueDepth, int64(run.end))
				}
			}
		}
	}
	got := b.String()
	golden := filepath.Join("testdata", "streams.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with go test -run TestStreamsGolden -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("stream replays drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestBatcherMatchesDeviceWithoutCPU: the two submission policies differ
// only in what submission costs and when the doorbell rings, so with
// submission CPU out of the picture (nil CPU) every request of a random
// stream completes at the same time under both.
func TestBatcherMatchesDeviceWithoutCPU(t *testing.T) {
	for _, slots := range []int{4, 64} {
		for seed := int64(1); seed <= 20; seed++ {
			cfg := DefaultConfig()
			cfg.Slots = slots
			reqs := randomStream(rand.New(rand.NewSource(seed)), slots)
			dev := completions(t, cfg, reqs, direct)
			bat := completions(t, cfg, reqs, coalesced)
			for i := range reqs {
				if dev[i] != bat[i] {
					t.Fatalf("slots=%d seed=%d: request %d %+v completes at %v per request, %v coalesced",
						slots, seed, i, reqs[i], dev[i], bat[i])
				}
			}
		}
	}
}

// TestBeamTieOrderDiffers pins the one place the two submission policies
// disagree even with free submission: a per-request beam rings one doorbell
// per page, each on its own process, and those processes run after every
// process already resumed at that instant, so a read issued later in the same
// instant overtakes the beam; a coalesced beam is enqueued inline, in call
// order. Only the order of service differs — the same requests finish by the
// same time. The published tables were recorded with the per-request order.
func TestBeamTieOrderDiffers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Slots = 1
	reqs := []streamReq{{pages: 2}, {bytes: 4096}} // both at t=0, beam first
	dev := completions(t, cfg, reqs, direct)
	bat := completions(t, cfg, reqs, coalesced)
	if !(dev[1] < dev[0]) {
		t.Errorf("per-request: read at %v did not overtake the beam at %v", dev[1], dev[0])
	}
	if !(bat[0] < bat[1]) {
		t.Errorf("coalesced: beam at %v did not stay ahead of the read at %v", bat[0], bat[1])
	}
	if dev[0] != bat[1] {
		t.Errorf("last completion differs: per-request %v, coalesced %v", dev[0], bat[1])
	}
}

// TestJobsMatchProcessLoop: Jobs' timer loops take the (at, seq) slots of the
// fio processes they replaced — per-job latencies in completion order, device
// counters and CPU busy time agree for every Table I point and for reads
// sharing the device with writes. Each mix is compared at two deadlines: a
// round one, and the instant of a completion, where a job must stop exactly
// as the process loop's `now < deadline` does.
func TestJobsMatchProcessLoop(t *testing.T) {
	type mix struct{ cores, reads, writes, bytes int }
	mixes := []mix{{2, 8, 4, 128 << 10}, {1, 3, 3, 4096}}
	for _, c := range TableI {
		mixes = append(mixes, mix{c.Cores, c.Jobs, 0, c.Bytes})
	}
	var deadline sim.Time
	var completions []sim.Time
	run := func(m mix, procs bool) string {
		completions = completions[:0]
		k := sim.NewKernel()
		cpu := sim.NewCPU(k, m.cores)
		d := New(k, cpu, DefaultConfig())
		var lats []string
		done := func(op string) func(sim.Duration) {
			return func(lat sim.Duration) {
				lats = append(lats, fmt.Sprintf("%s%d@%d", op, lat, k.Now()))
				completions = append(completions, k.Now())
			}
		}
		for _, j := range []struct {
			n     int
			write bool
			op    string
		}{{m.reads, false, "r"}, {m.writes, true, "w"}} {
			if !procs {
				d.Jobs(j.n, m.bytes, j.write, deadline, done(j.op))
				continue
			}
			op := trace.Read
			if j.write {
				op = trace.Write
			}
			report := done(j.op)
			for i := 0; i < j.n; i++ {
				k.Spawn("job", func(e *sim.Env) {
					for e.Now() < deadline {
						start := e.Now()
						d.request(e, op, m.bytes)
						report(e.Now().Sub(start))
					}
				})
			}
		}
		end := k.RunAll()
		checkDrained(t, d, nil, end)
		reads, writes := d.Stats()
		return fmt.Sprintf("end=%v reads=%d writes=%d busy=%v lats=%s", end, reads, writes, cpu.BusyTime(), strings.Join(lats, " "))
	}
	for _, m := range mixes {
		deadline = sim.Time(2 * time.Millisecond)
		run(m, false)
		for _, deadline = range []sim.Time{deadline, completions[len(completions)/2]} {
			if procs, timers := run(m, true), run(m, false); timers != procs {
				t.Errorf("%+v deadline %v: timer jobs diverge from processes:\n  processes %.300s\n  timers    %.300s", m, deadline, procs, timers)
			}
		}
	}
}

// TestJobsReportUnfinished: a job still looping when the kernel stops is
// check's error, not a silently short count.
func TestJobsReportUnfinished(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, sim.NewCPU(k, 1), DefaultConfig())
	check := d.Jobs(4, 4096, false, sim.Time(time.Millisecond), func(sim.Duration) {})
	k.Run(sim.Time(time.Millisecond / 2))
	if err := check(); err == nil || !strings.Contains(err.Error(), "4 fio jobs unfinished") {
		t.Errorf("check mid-run = %v, want 4 unfinished jobs", err)
	}
	k.RunAll()
	if err := check(); err != nil {
		t.Errorf("check after the run: %v", err)
	}
}
