package ssd

import (
	"math/rand"
	"testing"
	"time"

	"svdbench/internal/sim"
)

// streamReq is one request of a random read-only stream: a single read of
// bytes, or (pages > 1) a beam of page-sized reads, issued at virtual time at.
type streamReq struct {
	at    sim.Duration
	bytes int
	pages int
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
			}
			reqs = append(reqs, req)
		}
	}
	return reqs
}

// pageReader is the read surface Device and Batcher share.
type pageReader interface {
	Read(e *sim.Env, page int64, bytes int)
	ReadPages(e *sim.Env, pages []int64)
}

// completions replays the stream through the reader made by open on a fresh
// CPU-less device and returns each request's completion time.
func completions(cfg Config, reqs []streamReq, open func(*Device) pageReader) []sim.Time {
	k := sim.NewKernel()
	rd := open(New(k, nil, cfg))
	done := make([]sim.Time, len(reqs))
	for i, req := range reqs {
		i, req := i, req
		k.Spawn("req", func(e *sim.Env) {
			e.Sleep(req.at)
			if req.pages > 1 {
				rd.ReadPages(e, make([]int64, req.pages))
			} else {
				rd.Read(e, 0, req.bytes)
			}
			done[i] = e.Now()
		})
	}
	k.RunAll()
	return done
}

// TestBatcherMatchesDeviceWithoutCPU is the differential oracle behind the
// Batcher's claim that it models the same hardware: with submission CPU out
// of the picture (nil CPU), the analytic FIFO-grant / serial-bus recursion
// and the slot-semaphore process model give every request of a random stream
// the same completion time.
func TestBatcherMatchesDeviceWithoutCPU(t *testing.T) {
	for _, slots := range []int{4, 64} {
		for seed := int64(1); seed <= 20; seed++ {
			cfg := DefaultConfig()
			cfg.Slots = slots
			reqs := randomStream(rand.New(rand.NewSource(seed)), slots)
			dev := completions(cfg, reqs, func(d *Device) pageReader { return d })
			bat := completions(cfg, reqs, func(d *Device) pageReader { return NewBatcher(d) })
			for i := range reqs {
				if dev[i] != bat[i] {
					t.Fatalf("slots=%d seed=%d: request %d %+v completes at %v on the device, %v through the batcher",
						slots, seed, i, reqs[i], dev[i], bat[i])
				}
			}
		}
	}
}

// TestBeamTieOrderDiffers pins the one place the two models disagree (ROADMAP
// item 2): Device.ReadPages forks a process per page, and those children run
// after every process already resumed at that instant, so a read issued later
// in the same instant overtakes the beam; the Batcher enqueues the beam's
// pages inline, in call order. Only the order of service differs — the same
// requests finish by the same time.
func TestBeamTieOrderDiffers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Slots = 1
	reqs := []streamReq{{pages: 2}, {bytes: 4096}} // both at t=0, beam first
	dev := completions(cfg, reqs, func(d *Device) pageReader { return d })
	bat := completions(cfg, reqs, func(d *Device) pageReader { return NewBatcher(d) })
	if !(dev[1] < dev[0]) {
		t.Errorf("device: read at %v did not overtake the beam at %v", dev[1], dev[0])
	}
	if !(bat[0] < bat[1]) {
		t.Errorf("batcher: beam at %v did not stay ahead of the read at %v", bat[0], bat[1])
	}
	if dev[0] != bat[1] {
		t.Errorf("last completion differs: device %v, batcher %v", dev[0], bat[1])
	}
}
