package sim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// orderLog records (virtual time, process name) every time a process is
// resumed: at the start of its body and after every blocking call.
type orderLog struct{ b strings.Builder }

func (l *orderLog) at(e *Env) { fmt.Fprintf(&l.b, "%d %s\n", int64(e.Now()), e.Name()) }

// orderRunner is a reusable process body: a CPU burst, then a sleep.
type orderRunner struct {
	l   *orderLog
	cpu *CPU
	d   Duration
}

func (r *orderRunner) Run(e *Env) {
	r.l.at(e)
	r.cpu.Use(e, r.d)
	r.l.at(e)
	e.Sleep(r.d)
	r.l.at(e)
}

// orderScenario drives every primitive whose wake-up order the kernel
// decides — same-instant Sleep ties, Semaphore FIFO queues, fork/join on an
// Event,
// Event fire/wait, CPU.Use contention, and proc recycling across waves and
// across a full drain — and returns the resume log.
func orderScenario() string {
	l := &orderLog{}
	k := NewKernel()
	cpu := NewCPU(k, 2)
	sem := NewSemaphore(k, "s", 3)
	ev := NewEvent(k)

	// Sleep ties: four processes waking at the same instants, plus
	// zero-length sleeps that yield without advancing the clock.
	for i := 0; i < 4; i++ {
		k.Spawn(fmt.Sprintf("tie%d", i), func(e *Env) {
			l.at(e)
			for j := 0; j < 3; j++ {
				e.Sleep(time.Millisecond)
				l.at(e)
			}
			e.Sleep(0)
			l.at(e)
			e.SleepUntil(0) // in the past: resumes at the current instant
			l.at(e)
		})
	}

	// Semaphore FIFO: mixed-size acquisitions queue behind one another, a
	// large waiter at the head holding back smaller ones.
	for i, n := range []int64{2, 2, 1, 3, 1, 1} {
		n, hold := n, time.Duration(300+100*i)*time.Microsecond
		k.Spawn(fmt.Sprintf("sem%d", i), func(e *Env) {
			l.at(e)
			e.Sleep(time.Duration(n) * 50 * time.Microsecond)
			l.at(e)
			sem.Acquire(e, n)
			l.at(e)
			e.Sleep(hold)
			l.at(e)
			sem.Release(n)
		})
	}

	// Event: early waiters park, one late waiter arrives after the fire.
	for i := 0; i < 3; i++ {
		k.Spawn(fmt.Sprintf("wait%d", i), func(e *Env) {
			l.at(e)
			ev.Wait(e)
			l.at(e)
			cpu.Use(e, 40*time.Microsecond)
			l.at(e)
		})
	}
	k.Spawn("late-wait", func(e *Env) {
		l.at(e)
		e.Sleep(2 * time.Millisecond)
		l.at(e)
		ev.Wait(e)
		l.at(e)
	})
	k.Spawn("fire", func(e *Env) {
		l.at(e)
		e.Sleep(700 * time.Microsecond)
		l.at(e)
		ev.Fire()
	})

	// Fork/join in waves: closures and runners, more bursts than cores, each
	// wave reusing the procs the previous one returned to the pool. The last
	// child to finish fires the wave's event.
	runners := make([]*orderRunner, 3)
	for i := range runners {
		runners[i] = &orderRunner{l: l, cpu: cpu, d: time.Duration(60+25*i) * time.Microsecond}
	}
	k.Spawn("parent", func(e *Env) {
		l.at(e)
		for wave := 0; wave < 3; wave++ {
			left, joined := 6, NewEvent(k)
			fork := func(name string, fn func(*Env)) {
				k.Spawn(name, func(ce *Env) {
					fn(ce)
					if left--; left == 0 {
						joined.Fire()
					}
				})
			}
			for i := 0; i < 3; i++ {
				d := time.Duration(100*(3-i)) * time.Microsecond
				fork(fmt.Sprintf("child%d.%d", wave, i), func(ce *Env) {
					l.at(ce)
					cpu.Use(ce, d)
					l.at(ce)
				})
			}
			for i, r := range runners {
				fork(fmt.Sprintf("runner%d.%d", wave, i), r.Run)
			}
			joined.Wait(e)
			l.at(e)
			e.Sleep(150 * time.Microsecond)
			l.at(e)
		}
	})

	// Stop at a horizon mid-run, then continue to quiescence.
	fmt.Fprintf(&l.b, "-- horizon %d\n", int64(k.Run(Time(900*time.Microsecond))))
	fmt.Fprintf(&l.b, "-- drained %d\n", int64(k.RunAll()))

	// A second run on the drained kernel: fresh procs, a process that
	// spawns detached runners from inside, and same-instant spawns.
	k.Spawn("second", func(e *Env) {
		l.at(e)
		for i, r := range runners {
			k.Spawn(fmt.Sprintf("detached%d", i), r.Run)
		}
		e.Sleep(time.Millisecond)
		l.at(e)
		for i := 0; i < 3; i++ {
			k.Spawn(fmt.Sprintf("burst%d", i), func(be *Env) {
				l.at(be)
				cpu.Use(be, 30*time.Microsecond)
				l.at(be)
			})
		}
	})
	fmt.Fprintf(&l.b, "-- drained %d\n", int64(k.RunAll()))
	return l.b.String()
}

// TestEventOrderGolden pins the order in which the kernel resumes processes.
// The golden file was captured with the goroutine-and-channel kernel that
// preceded the coroutine hand-off; any kernel change must reproduce it byte
// for byte, which is what keeps every virtual-time output of the benchmark
// identical.
func TestEventOrderGolden(t *testing.T) {
	got := orderScenario()
	golden := filepath.Join("testdata", "order.golden")
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
		t.Fatalf("golden file missing (regenerate with go test -run TestEventOrderGolden -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("resume order drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if again := orderScenario(); again != got {
		t.Error("two runs of the scenario disagree")
	}
}
