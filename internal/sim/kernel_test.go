package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	k := NewKernel()
	var woke Time
	k.Spawn("sleeper", func(e *Env) {
		e.Sleep(150 * time.Microsecond)
		woke = e.Now()
	})
	end := k.RunAll()
	if woke != Time(150*time.Microsecond) {
		t.Errorf("woke at %v, want 150µs", woke)
	}
	if end != woke {
		t.Errorf("run ended at %v, want %v", end, woke)
	}
}

func TestZeroAndNegativeSleep(t *testing.T) {
	k := NewKernel()
	var after Time
	k.Spawn("p", func(e *Env) {
		e.Sleep(0)
		e.Sleep(-time.Second)
		after = e.Now()
	})
	k.RunAll()
	if after != 0 {
		t.Errorf("clock moved to %v on zero/negative sleep", after)
	}
}

func TestSleepUntilPast(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(e *Env) {
		e.Sleep(time.Millisecond)
		e.SleepUntil(0) // in the past: must not rewind
		if e.Now() != Time(time.Millisecond) {
			t.Errorf("clock rewound to %v", e.Now())
		}
	})
	k.RunAll()
}

func TestInterleavingDeterministic(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var order []string
		for i := 0; i < 5; i++ {
			i := i
			k.Spawn(fmt.Sprintf("p%d", i), func(e *Env) {
				for j := 0; j < 3; j++ {
					e.Sleep(time.Duration(i+1) * time.Millisecond)
					order = append(order, fmt.Sprintf("p%d@%v", i, e.Now()))
				}
			})
		}
		k.RunAll()
		return order
	}
	a, b := run(), run()
	if len(a) != 15 {
		t.Fatalf("got %d events, want 15", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestSameInstantFIFOOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Spawn("p", func(e *Env) {
			e.Sleep(time.Millisecond) // all wake at the same instant
			order = append(order, i)
		})
	}
	k.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant order not FIFO: %v", order)
		}
	}
}

func TestRunHorizonStopsClock(t *testing.T) {
	k := NewKernel()
	done := false
	k.Spawn("p", func(e *Env) {
		e.Sleep(10 * time.Second)
		done = true
	})
	end := k.Run(Time(time.Second))
	if done {
		t.Error("process ran past the horizon")
	}
	if end != Time(time.Second) {
		t.Errorf("clock at %v, want 1s", end)
	}
	k.RunAll()
	if !done {
		t.Error("process did not complete after extending horizon")
	}
}

// TestRunNeverRewinds: a horizon before the clock, with a wake-up pending,
// leaves the clock where it is, so a later Run still fires the wake-up at
// its own time and Passed answers against the clock the run reached.
func TestRunNeverRewinds(t *testing.T) {
	k := NewKernel()
	var fired []Time
	k.WakeAt(NewTimer(wakeFunc(func() { fired = append(fired, k.Now()) })), 30)
	if got := k.Run(25); got != 25 || k.Now() != 25 {
		t.Fatalf("Run(25) = %v, Now %v; want 25", got, k.Now())
	}
	if got := k.Run(10); got != 25 || k.Now() != 25 {
		t.Fatalf("Run(10) after Run(25) = %v, Now %v; want 25", got, k.Now())
	}
	if !k.Passed(Slot{At: 20, Seq: 1 << 60}) || k.Passed(Slot{At: 26}) {
		t.Errorf("Passed at clock 25: a slot at 20 must have passed, one at 26 not")
	}
	if len(fired) != 0 {
		t.Fatalf("wake-up fired at %v before its time", fired)
	}
	// With nothing left, Run stops at the last event, not at the horizon.
	if got := k.Run(40); got != 30 || len(fired) != 1 || fired[0] != 30 {
		t.Errorf("Run(40) = %v, fired %v; want one wake-up, at 30, and the run ending there", got, fired)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	k := NewKernel()
	var childTime Time
	k.Spawn("parent", func(e *Env) {
		e.Sleep(time.Millisecond)
		e.Kernel().Spawn("child", func(ce *Env) {
			ce.Sleep(time.Millisecond)
			childTime = ce.Now()
		})
		e.Sleep(5 * time.Millisecond)
	})
	k.RunAll()
	if childTime != Time(2*time.Millisecond) {
		t.Errorf("child finished at %v, want 2ms", childTime)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	sem := NewSemaphore(k, "s", 1)
	called := false
	k.OnDeadlock(func(*Kernel) { called = true })
	k.Spawn("p", func(e *Env) {
		sem.Acquire(e, 1)
		sem.Acquire(e, 1) // self-deadlock
	})
	k.RunAll()
	if !called {
		t.Error("deadlock handler not invoked")
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	k := NewKernel()
	sem := NewSemaphore(k, "s", 2)
	inFlight, maxInFlight := 0, 0
	for i := 0; i < 6; i++ {
		k.Spawn("w", func(e *Env) {
			sem.Acquire(e, 1)
			inFlight++
			if inFlight > maxInFlight {
				maxInFlight = inFlight
			}
			e.Sleep(time.Millisecond)
			inFlight--
			sem.Release(1)
		})
	}
	end := k.RunAll()
	if maxInFlight != 2 {
		t.Errorf("max in flight %d, want 2", maxInFlight)
	}
	// 6 jobs, 2 at a time, 1ms each => 3ms.
	if end != Time(3*time.Millisecond) {
		t.Errorf("finished at %v, want 3ms", end)
	}
}

func TestSemaphoreFIFONoBarging(t *testing.T) {
	k := NewKernel()
	sem := NewSemaphore(k, "s", 2)
	var order []string
	k.Spawn("holder", func(e *Env) {
		sem.Acquire(e, 2)
		e.Sleep(time.Millisecond)
		sem.Release(2)
	})
	k.Spawn("big", func(e *Env) {
		e.Sleep(1)
		sem.Acquire(e, 2)
		order = append(order, "big")
		sem.Release(2)
	})
	k.Spawn("small", func(e *Env) {
		e.Sleep(2)
		sem.Acquire(e, 1)
		order = append(order, "small")
		sem.Release(1)
	})
	k.RunAll()
	if len(order) != 2 || order[0] != "big" {
		t.Errorf("barging occurred, order %v", order)
	}
}

func TestSemaphoreWaitStats(t *testing.T) {
	k := NewKernel()
	sem := NewSemaphore(k, "s", 1)
	k.Spawn("a", func(e *Env) {
		sem.Acquire(e, 1)
		e.Sleep(2 * time.Millisecond)
		sem.Release(1)
	})
	k.Spawn("b", func(e *Env) {
		sem.Acquire(e, 1)
		sem.Release(1)
	})
	k.RunAll()
	waits, total, maxQ := sem.WaitStats()
	if waits != 1 || total != 2*time.Millisecond || maxQ != 1 {
		t.Errorf("stats = (%d, %v, %d), want (1, 2ms, 1)", waits, total, maxQ)
	}
}

func TestCPUSerializesBeyondCores(t *testing.T) {
	k := NewKernel()
	cpu := NewCPU(k, 2)
	for i := 0; i < 4; i++ {
		k.Spawn("burst", func(e *Env) { cpu.Use(e, 10*time.Millisecond) })
	}
	end := k.RunAll()
	if end != Time(20*time.Millisecond) {
		t.Errorf("4 bursts on 2 cores finished at %v, want 20ms", end)
	}
	if cpu.BusyTime() != 40*time.Millisecond {
		t.Errorf("busy time %v, want 40ms", cpu.BusyTime())
	}
}

func TestUtilizationMath(t *testing.T) {
	u := Utilization(0, 10*time.Second, 1*time.Second, 20)
	if u != 0.5 {
		t.Errorf("utilization = %v, want 0.5", u)
	}
	if Utilization(0, 0, 0, 20) != 0 {
		t.Error("zero window must give zero utilization")
	}
}

func TestManyProcessesStress(t *testing.T) {
	k := NewKernel()
	cpu := NewCPU(k, 8)
	done := 0
	for i := 0; i < 500; i++ {
		i := i
		k.Spawn("w", func(e *Env) {
			e.Sleep(time.Duration(i%17) * time.Microsecond)
			cpu.Use(e, time.Duration(50+i%13)*time.Microsecond)
			done++
		})
	}
	k.RunAll()
	if done != 500 {
		t.Fatalf("completed %d, want 500", done)
	}
}

// TestBodyPanicPropagatesFromRun: processes are coroutines resumed on the
// goroutine that called Run, so a panic in a body unwinds through Run into
// the caller, which can recover it and fail one simulation loudly instead of
// losing the whole program to an unrecoverable goroutine.
func TestBodyPanicPropagatesFromRun(t *testing.T) {
	k := NewKernel()
	k.Spawn("bystander", func(e *Env) { e.Sleep(time.Second) })
	k.Spawn("faulty", func(e *Env) {
		e.Sleep(time.Millisecond)
		panic("boom")
	})
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want the body's panic value", r)
		}
	}()
	k.RunAll()
	t.Error("RunAll returned past a panicking body")
}

// TestDeadlockReportNamesProcesses: the report lists each blocked process by
// name with the virtual time it blocked at, and leaves finished ones out.
func TestDeadlockReportNamesProcesses(t *testing.T) {
	k := NewKernel()
	sem := NewSemaphore(k, "s", 1)
	var report string
	k.OnDeadlock(func(k *Kernel) { report = k.DeadlockReport() })
	k.Spawn("finisher", func(e *Env) { e.Sleep(time.Millisecond) })
	k.Spawn("holder", func(e *Env) {
		sem.Acquire(e, 1)
		e.Sleep(2 * time.Millisecond)
		sem.Acquire(e, 1) // self-deadlock at 2ms
	})
	k.Spawn("victim", func(e *Env) {
		e.Sleep(time.Millisecond)
		sem.Acquire(e, 1) // queues behind holder at 1ms, forever
	})
	k.RunAll()
	for _, want := range []string{
		"deadlock at t=2ms with 2 live processes",
		`"holder" blocked since t=2ms`,
		`"victim" blocked since t=1ms`,
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	if strings.Contains(report, "finisher") {
		t.Errorf("report lists a finished process:\n%s", report)
	}
}

// TestDeadlockDefaultPanicsWithReport: with no handler installed the kernel
// panics, and the message is the same process dump.
func TestDeadlockDefaultPanicsWithReport(t *testing.T) {
	k := NewKernel()
	sem := NewSemaphore(k, "s", 1)
	k.Spawn("stuck", func(e *Env) {
		sem.Acquire(e, 1)
		sem.Acquire(e, 1)
	})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `"stuck" blocked since t=0s`) {
			t.Errorf("panic message %q does not name the blocked process", msg)
		}
	}()
	k.RunAll()
}

// joinChild is a reusable process body for the allocation test: it sleeps,
// then counts its fork down and fires the parent's event on the last arrival.
type joinChild struct {
	left int
	ev   *Event
}

func (c *joinChild) Run(e *Env) {
	e.Sleep(time.Microsecond)
	if c.left--; c.left == 0 {
		c.ev.Fire()
	}
}

// TestSteadyStateHandOffAllocatesNothing: on a warmed kernel, blocking and
// resuming processes, forking a reusable body onto recycled procs and joining
// it on a pooled event, and a timer queueing for a contended core, allocate
// nothing.
func TestSteadyStateHandOffAllocatesNothing(t *testing.T) {
	k := NewKernel()
	stop := false
	for i := 0; i < 8; i++ {
		k.Spawn("sleeper", func(e *Env) {
			for !stop {
				e.Sleep(time.Microsecond)
			}
		})
	}
	k.Spawn("forker", func(e *Env) {
		c := &joinChild{}
		run := c.Run // one method value: a fresh one per Spawn would allocate
		for !stop {
			c.left, c.ev = 4, k.AllocEvent()
			for i := 0; i < 4; i++ {
				k.Spawn("child", run)
			}
			c.ev.Wait(e)
			k.ReleaseEvent(c.ev)
		}
	})
	cpu := NewCPU(k, 1)
	k.Spawn("hog", func(e *Env) {
		for !stop {
			cpu.Use(e, 2*time.Microsecond)
		}
	})
	var bell *doorbell
	bell = newDoorbell(k, cpu, time.Microsecond, time.Microsecond, func() {
		if !stop {
			bell.ring()
		}
	})
	bell.ring()
	horizon := Time(100 * time.Microsecond)
	k.Run(horizon) // warm: coroutines created, heap and pools grown
	waits, _, _ := cpu.sem.WaitStats()
	allocs := testing.AllocsPerRun(50, func() {
		horizon = horizon.Add(100 * time.Microsecond)
		k.Run(horizon)
	})
	if allocs != 0 {
		t.Errorf("steady-state hand-off allocates %.1f per 100µs window, want 0", allocs)
	}
	if after, _, _ := cpu.sem.WaitStats(); after-waits < 100 {
		t.Errorf("%d bursts queued in the measured windows: the core was not contended", after-waits)
	}
	stop = true
	k.RunAll()
	if k.Live() != 0 || k.Pending() != 0 {
		t.Errorf("%d processes left alive, %d events pending", k.Live(), k.Pending())
	}
}

// TestSemaphoreContendedSteadyStateZeroAlloc: a semaphore with more waiters
// than capacity keeps its wait queue's storage — granting a waiter must not
// slice the front of the queue away, or every contended acquire eventually
// re-allocates it.
func TestSemaphoreContendedSteadyStateZeroAlloc(t *testing.T) {
	k := NewKernel()
	sem := NewSemaphore(k, "s", 2)
	stop := false
	for i := 0; i < 16; i++ {
		k.Spawn("holder", func(e *Env) {
			for !stop {
				sem.Acquire(e, 1)
				e.Sleep(time.Microsecond)
				sem.Release(1)
			}
		})
	}
	horizon := Time(100 * time.Microsecond)
	k.Run(horizon) // warm: coroutines created, heap and queue grown
	allocs := testing.AllocsPerRun(50, func() {
		horizon = horizon.Add(100 * time.Microsecond)
		k.Run(horizon)
	})
	if allocs != 0 {
		t.Errorf("contended semaphore allocates %.1f per 100µs window, want 0", allocs)
	}
	if _, _, maxQueue := sem.WaitStats(); maxQueue < 8 {
		t.Errorf("max queue %d: the semaphore was not contended", maxQueue)
	}
	stop = true
	k.RunAll()
}

// BenchmarkHandOff measures one process switch: 64 processes sleeping in
// lock-step, so every event is a block in one process and a resume of the
// next (the shape of the layered benchmark's sim.ns_per_event probe).
func BenchmarkHandOff(b *testing.B) {
	const procs = 64
	k := NewKernel()
	per := b.N/procs + 1
	for p := 0; p < procs; p++ {
		k.Spawn("sleeper", func(e *Env) {
			for i := 0; i < per; i++ {
				e.Sleep(time.Microsecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.RunAll()
}
