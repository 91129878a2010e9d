package ssd

import (
	"testing"
	"time"

	"svdbench/internal/sim"
	"svdbench/internal/trace"
)

// calibrate runs njobs closed-loop read jobs of reqBytes for the given virtual
// duration on a CPU with the given core count, and returns the achieved IOPS
// and MiB/s.
func calibrate(t *testing.T, cores, njobs, reqBytes int, dur sim.Duration) (iops, mibps float64) {
	t.Helper()
	k := sim.NewKernel()
	dev := New(k, sim.NewCPU(k, cores), DefaultConfig())
	var ops int64
	check := dev.Jobs(njobs, reqBytes, false, sim.Time(dur), func(sim.Duration) { ops++ })
	checkDrained(t, dev, nil, k.RunAll())
	if err := check(); err != nil {
		t.Fatal(err)
	}
	secs := dur.Seconds()
	return float64(ops) / secs, float64(ops) * float64(reqBytes) / (1 << 20) / secs
}

// calibrateTableI runs one of the paper's fio calibration points for 500 ms.
func calibrateTableI(t *testing.T, c Calibration) (iops, mibps float64) {
	t.Helper()
	return calibrate(t, c.Cores, c.Jobs, c.Bytes, 500*time.Millisecond)
}

// The paper's fio calibration (Sec. III-A): 324.3 KIOPS with 4 KiB requests
// on a single core.
func TestCalibrationSingleCore4K(t *testing.T) {
	iops, _ := calibrateTableI(t, TableI[0])
	if iops < 280e3 || iops > 360e3 {
		t.Errorf("single-core 4 KiB IOPS = %.0f, want ≈324K", iops)
	}
}

// 1.3 MIOPS with 64 concurrent 4 KiB requests on four cores.
func TestCalibrationFourCore4K(t *testing.T) {
	iops, _ := calibrateTableI(t, TableI[1])
	if iops < 1.15e6 || iops > 1.45e6 {
		t.Errorf("4-core 64-deep 4 KiB IOPS = %.0f, want ≈1.3M", iops)
	}
}

// 7.2 GiB/s with 128 KiB sequential reads and 32 concurrent threads.
func TestCalibrationSequentialBandwidth(t *testing.T) {
	_, mibps := calibrateTableI(t, TableI[2])
	if mibps < 6800 || mibps > 7500 {
		t.Errorf("128 KiB × 32 bandwidth = %.0f MiB/s, want ≈7372 (7.2 GiB/s)", mibps)
	}
}

func TestQD1LatencyBound(t *testing.T) {
	// A single request with an idle device completes in base latency plus
	// bus time; QD1 IOPS must therefore sit near 1/(submit+latency).
	iops, _ := calibrate(t, 1, 1, 4096, 100*time.Millisecond)
	want := 1.0 / (DefaultConfig().SubmitCPU + DefaultConfig().ReadLatency).Seconds()
	if iops < want*0.85 || iops > want*1.1 {
		t.Errorf("QD1 IOPS = %.0f, want ≈%.0f", iops, want)
	}
}

func TestThroughputMonotoneInConcurrency(t *testing.T) {
	prev := 0.0
	for _, jobs := range []int{1, 4, 16, 64} {
		iops, _ := calibrate(t, 8, jobs, 4096, 200*time.Millisecond)
		if iops+1e3 < prev { // allow tiny wiggle
			t.Errorf("IOPS dropped from %.0f to %.0f at %d jobs", prev, iops, jobs)
		}
		prev = iops
	}
}

func TestTracerObservesRequests(t *testing.T) {
	k := sim.NewKernel()
	dev := New(k, nil, DefaultConfig())
	tr := trace.NewTracer(true)
	dev.Attach(tr)
	k.Spawn("p", func(e *sim.Env) {
		dev.Read(e, 0, 4096)
		dev.Write(e, 1, 8192)
	})
	checkDrained(t, dev, nil, k.RunAll())
	r, w, rb, wb := tr.Totals()
	if r != 1 || w != 1 || rb != 4096 || wb != 8192 {
		t.Errorf("tracer totals = (%d,%d,%d,%d)", r, w, rb, wb)
	}
	recs := tr.Records()
	if len(recs) != 2 || recs[0].Op != trace.Read || recs[1].Op != trace.Write {
		t.Errorf("raw records wrong: %+v", recs)
	}
	reads, writes := dev.Stats()
	if reads != 1 || writes != 1 {
		t.Errorf("device stats = (%d,%d)", reads, writes)
	}
}

func TestReadPagesBeamParallelism(t *testing.T) {
	// W page reads issued as a beam must complete in roughly one service
	// time, not W of them.
	k := sim.NewKernel()
	dev := New(k, nil, DefaultConfig())
	var elapsed sim.Duration
	k.Spawn("p", func(e *sim.Env) {
		start := e.Now()
		dev.ReadPages(e, []int64{0, 1, 2, 3, 4, 5, 6, 7})
		elapsed = e.Now().Sub(start)
	})
	k.RunAll()
	one := DefaultConfig().ReadLatency
	if elapsed < one || elapsed > 2*one {
		t.Errorf("8-wide beam took %v, want ≈%v (one service time)", elapsed, one)
	}
}

func TestReadPagesEmptyAndSingle(t *testing.T) {
	k := sim.NewKernel()
	dev := New(k, nil, DefaultConfig())
	k.Spawn("p", func(e *sim.Env) {
		dev.ReadPages(e, nil)
		if e.Now() != 0 {
			t.Error("empty beam advanced the clock")
		}
		dev.ReadPages(e, []int64{3})
	})
	checkDrained(t, dev, nil, k.RunAll())
	reads, _ := dev.Stats()
	if reads != 1 {
		t.Errorf("reads = %d, want 1", reads)
	}
}

func TestWriteInterferenceSlowsReads(t *testing.T) {
	// Sustained large writes occupy the shared bus; concurrent large reads
	// must observe reduced bandwidth versus a read-only run.
	run := func(withWrites bool) float64 {
		k := sim.NewKernel()
		dev := New(k, nil, DefaultConfig())
		deadline := sim.Time(200 * time.Millisecond)
		var readBytes int64
		dev.Jobs(16, 128*1024, false, deadline, func(sim.Duration) { readBytes += 128 * 1024 })
		if withWrites {
			dev.Jobs(16, 128*1024, true, deadline, func(sim.Duration) {})
		}
		k.RunAll()
		return float64(readBytes) / (1 << 20) / 0.2
	}
	clean := run(false)
	mixed := run(true)
	if mixed >= clean*0.8 {
		t.Errorf("read bandwidth with writes %.0f MiB/s, without %.0f MiB/s: expected ≥20%% interference", mixed, clean)
	}
}

func TestAllocAddressesDisjoint(t *testing.T) {
	k := sim.NewKernel()
	dev := New(k, nil, DefaultConfig())
	a := dev.Alloc(10)
	b := dev.Alloc(5)
	c := dev.Alloc(1)
	if a != 0 || b != 10 || c != 15 {
		t.Errorf("alloc sequence = %d,%d,%d", a, b, c)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for zero-slot config")
		}
	}()
	cfg := DefaultConfig()
	cfg.Slots = 0
	New(sim.NewKernel(), nil, cfg)
}

// BenchmarkReadAsync measures the host cost of one per-request read: 64
// processes on 20 cores each keep one 4 KiB ReadAsync in flight, a closed
// loop that rings doorbells, queues on the units and completes — the device
// path replay drives. One op is one read.
func BenchmarkReadAsync(b *testing.B) {
	const streams = 64
	k := sim.NewKernel()
	d := New(k, sim.NewCPU(k, 20), DefaultConfig())
	for i := 0; i < streams; i++ {
		reads := b.N / streams
		if i < b.N%streams {
			reads++
		}
		k.Spawn("stream", func(e *sim.Env) {
			for j := 0; j < reads; j++ {
				ev := k.AllocEvent()
				d.ReadAsync(int64(j), 4096, ev)
				d.await(e, ev)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.RunAll()
}
