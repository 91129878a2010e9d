package ssd

import (
	"testing"
	"time"

	"svdbench/internal/sim"
	"svdbench/internal/trace"
)

// runReads issues n concurrent 4 KiB reads through read and returns the
// tracer observing the device plus the CPU's total busy time.
func runReads(t *testing.T, n int, via func(d *Device, b *Batcher) func(e *sim.Env, page int64, bytes int)) (*trace.Tracer, sim.Duration) {
	t.Helper()
	k := sim.NewKernel()
	cpu := sim.NewCPU(k, 8)
	dev := New(k, cpu, DefaultConfig())
	tr := trace.NewTracer(false)
	dev.Attach(tr)
	b := NewBatcher(dev)
	read := via(dev, b)
	for i := 0; i < n; i++ {
		page := int64(i)
		k.Spawn("reader", func(e *sim.Env) { read(e, page, 4096) })
	}
	end := k.RunAll()
	tr.FinishAt(end)
	checkDrained(t, dev, b, end)
	return tr, cpu.BusyTime()
}

// TestBatcherReadsSameBytes: coalescing changes submission cost and timing,
// never which bytes reach the device.
func TestBatcherReadsSameBytes(t *testing.T) {
	const n = 64
	direct, _ := runReads(t, n, func(d *Device, _ *Batcher) func(*sim.Env, int64, int) {
		return d.Read
	})
	batched, _ := runReads(t, n, func(_ *Device, b *Batcher) func(*sim.Env, int64, int) {
		return b.Read
	})
	dOps, _, dBytes, _ := direct.Totals()
	bOps, _, bBytes, _ := batched.Totals()
	if dOps != bOps || dBytes != bBytes {
		t.Errorf("batched device traffic (%d ops, %d B) differs from direct (%d ops, %d B)",
			bOps, bBytes, dOps, dBytes)
	}
	if bOps != n || bBytes != int64(n*4096) {
		t.Errorf("device saw %d ops %d bytes, want %d ops %d bytes", bOps, bBytes, n, n*4096)
	}
}

// TestBatcherCoalesces: requests outstanding together are dispatched in
// fewer batches than requests, and the stats count every request.
func TestBatcherCoalesces(t *testing.T) {
	const n = 64
	k := sim.NewKernel()
	cpu := sim.NewCPU(k, 8)
	dev := New(k, cpu, DefaultConfig())
	b := NewBatcher(dev)
	for i := 0; i < n; i++ {
		page := int64(i)
		k.Spawn("reader", func(e *sim.Env) { b.Read(e, page, 4096) })
	}
	checkDrained(t, dev, b, k.RunAll())
	batches, requests := b.Stats()
	if requests != n {
		t.Errorf("batcher carried %d requests, want %d", requests, n)
	}
	if batches >= requests {
		t.Errorf("%d batches for %d concurrent requests: no coalescing", batches, requests)
	}
	maxPerBatch := int64(dev.Config().Slots)
	if min := (requests + maxPerBatch - 1) / maxPerBatch; batches < min {
		t.Errorf("%d batches exceed the per-batch slot cap (min %d)", batches, min)
	}
}

// TestBatcherAmortizesSubmitCPU: a batch pays SubmitCPU once plus the
// cheaper BatchSubmitCPU per additional request, so total submission CPU
// must drop versus the direct path.
func TestBatcherAmortizesSubmitCPU(t *testing.T) {
	const n = 64
	_, directCPU := runReads(t, n, func(d *Device, _ *Batcher) func(*sim.Env, int64, int) {
		return d.Read
	})
	_, batchedCPU := runReads(t, n, func(_ *Device, b *Batcher) func(*sim.Env, int64, int) {
		return b.Read
	})
	if batchedCPU >= directCPU {
		t.Errorf("batched submission CPU %v not below direct %v", batchedCPU, directCPU)
	}
}

// TestBatcherSequentialRequestsStillComplete: a lone request (nothing to
// coalesce with) must still be serviced — the dispatcher drains and exits.
func TestBatcherSequentialRequestsStillComplete(t *testing.T) {
	k := sim.NewKernel()
	cpu := sim.NewCPU(k, 2)
	dev := New(k, cpu, DefaultConfig())
	b := NewBatcher(dev)
	var done int
	k.Spawn("reader", func(e *sim.Env) {
		for i := 0; i < 3; i++ {
			b.Read(e, int64(i), 4096)
			done++
			e.Sleep(time.Millisecond)
		}
	})
	checkDrained(t, dev, b, k.RunAll())
	if done != 3 {
		t.Errorf("completed %d sequential batched reads, want 3", done)
	}
	batches, requests := b.Stats()
	if batches != 3 || requests != 3 {
		t.Errorf("sequential reads: %d batches / %d requests, want 3/3", batches, requests)
	}
}

// TestCoalescedReadsAndWritesShareUnits: the two submission policies drive
// one device, so a per-request write issued while a coalesced read holds the
// only unit waits for it — the engine's WAL writes go through Device.Write
// whatever the read policy.
func TestCoalescedReadsAndWritesShareUnits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Slots = 1
	k := sim.NewKernel()
	dev := New(k, nil, cfg)
	b := NewBatcher(dev)
	var readDone, writeDone sim.Time
	k.Spawn("reader", func(e *sim.Env) {
		b.Read(e, 0, 4096)
		readDone = e.Now()
	})
	k.Spawn("writer", func(e *sim.Env) {
		e.Sleep(time.Microsecond)
		dev.Write(e, 1, 4096)
		writeDone = e.Now()
	})
	checkDrained(t, dev, b, k.RunAll())
	if writeDone < readDone.Add(cfg.WriteLatency) {
		t.Errorf("write issued behind a read holding the only unit completed at %v; the read at %v", writeDone, readDone)
	}
}
