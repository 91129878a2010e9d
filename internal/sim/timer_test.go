package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// doorbell is the timer form of the process body
//
//	cpu.Use(e, burst); e.Sleep(pause); then()
//
// woken once per step, a step being what the process runs between two
// blocks.
type doorbell struct {
	k            *Kernel
	cpu          *CPU
	t            *Timer
	burst, pause Duration
	then         func()
	b            Burst
	step         int
}

const (
	bellIdle = iota
	bellSpawned
	bellBurst
	bellPause
)

func newDoorbell(k *Kernel, cpu *CPU, burst, pause Duration, then func()) *doorbell {
	b := &doorbell{k: k, cpu: cpu, burst: burst, pause: pause, then: then}
	b.t = NewTimer(b)
	return b
}

// ring starts the chain at the current instant, where Spawn would start the
// process.
func (b *doorbell) ring() {
	b.step = bellSpawned
	b.k.WakeAt(b.t, b.k.Now())
}

func (b *doorbell) Wake() {
	switch b.step {
	case bellSpawned, bellBurst:
		b.step = bellBurst
		if !b.cpu.Burn(b.t, &b.b, b.burst, b.k) {
			return
		}
		b.step = bellPause
		b.k.WakeAt(b.t, b.k.Now().Add(b.pause))
	case bellPause:
		b.step = bellIdle
		b.then()
	}
}

// listener is the timer form of the process body
//
//	log; ev.Wait(e); log
//
// parking on the event with WaitTimer.
type listener struct {
	l      *orderLog
	k      *Kernel
	t      *Timer
	name   string
	ev     *Event
	waited bool
}

func (ls *listener) Wake() {
	fmt.Fprintf(&ls.l.b, "%d %s\n", int64(ls.k.Now()), ls.name)
	if !ls.waited {
		ls.waited = true
		if !ls.ev.WaitTimer(ls.t) {
			return
		}
		fmt.Fprintf(&ls.l.b, "%d %s\n", int64(ls.k.Now()), ls.name)
	}
}

// bellScenario runs CPU-contended doorbell → sleep → fire chains among
// ordinary processes, the chains as processes or as timers, and returns what
// the bystanders observed: their (time, name) resume log, then the CPU's
// busy time, busy-edge log and wait statistics.
func bellScenario(timers bool) string {
	l := &orderLog{}
	k := NewKernel()
	cpu := NewCPU(k, 2)
	var edges strings.Builder
	cpu.SetBusyNotify(func(at Time, busy bool) { fmt.Fprintf(&edges, "%d %v\n", int64(at), busy) })

	// Workers burst and sleep in 10µs multiples, so they tie with each other
	// and with the chains at the same instants.
	for i := 0; i < 3; i++ {
		burst, nap := time.Duration(20+10*i)*time.Microsecond, time.Duration(10*i)*time.Microsecond
		k.Spawn(fmt.Sprintf("worker%d", i), func(e *Env) {
			for j := 0; j < 8; j++ {
				l.at(e)
				cpu.Use(e, burst)
				l.at(e)
				e.Sleep(nap)
			}
			l.at(e)
		})
	}

	// The spawner starts three chains per round at one instant and waits for
	// the last one's fire; a listener parks on each round's event too.
	const chains = 3
	left, ev := 0, (*Event)(nil)
	fire := func() {
		if left--; left == 0 {
			ev.Fire()
		}
	}
	bells := make([]*doorbell, chains)
	for i := range bells {
		bells[i] = newDoorbell(k, cpu, time.Duration(30+10*i)*time.Microsecond, 50*time.Microsecond, fire)
	}
	k.Spawn("spawner", func(e *Env) {
		for round := 0; round < 5; round++ {
			l.at(e)
			left, ev = chains, k.AllocEvent()
			name := fmt.Sprintf("listener%d", round)
			if timers {
				ls := &listener{l: l, k: k, name: name, ev: ev}
				ls.t = NewTimer(ls)
				k.WakeAt(ls.t, k.Now())
			} else {
				k.Spawn(name, func(le *Env) {
					l.at(le)
					ev.Wait(le)
					l.at(le)
				})
			}
			for _, b := range bells {
				if timers {
					b.ring()
					continue
				}
				b := b
				k.Spawn("bell", func(be *Env) {
					cpu.Use(be, b.burst)
					be.Sleep(b.pause)
					b.then()
				})
			}
			ev.Wait(e)
			l.at(e)
			e.Sleep(time.Duration(10*round) * time.Microsecond)
		}
	})
	end := k.RunAll()
	waits, waited, maxQueue := cpu.sem.WaitStats()
	return fmt.Sprintf("%s-- end %d busy %d waits %d waited %d max queue %d\n%s",
		l.b.String(), int64(end), int64(cpu.BusyTime()), waits, int64(waited), maxQueue, edges.String())
}

// TestTimerMatchesProcess: a state machine woken through a Timer replays the
// event sequence of the process it stands in for, so swapping one for the
// other moves nothing the rest of the simulation can see.
func TestTimerMatchesProcess(t *testing.T) {
	procs, timers := bellScenario(false), bellScenario(true)
	if procs != timers {
		t.Errorf("timers diverge from processes:\n--- processes ---\n%s\n--- timers ---\n%s", procs, timers)
	}
	if !strings.Contains(procs, "listener4") || strings.Contains(procs, "max queue 0\n") {
		t.Errorf("scenario did not run contended to the end:\n%s", procs)
	}
}

// holder is a timer that takes its semaphore, holds it for d and releases it,
// logging when it got it.
type holder struct {
	k    *Kernel
	t    *Timer
	sem  *Semaphore
	d    Duration
	got  Time
	step int
}

func (h *holder) Wake() {
	switch h.step {
	case 0:
		h.step = 1
		if !h.sem.AcquireTimer(h.t, 1) {
			return
		}
		fallthrough
	case 1:
		h.got, h.step = h.k.Now(), 2
		h.k.WakeAt(h.t, h.k.Now().Add(h.d))
	case 2:
		h.sem.Release(1)
	}
}

// TestAcquireTimerQueuesFIFO: timers queue on a semaphore behind each other
// in arrival order and are woken at the instant the units are granted.
func TestAcquireTimerQueuesFIFO(t *testing.T) {
	k := NewKernel()
	sem := NewSemaphore(k, "s", 1)
	hs := make([]*holder, 3)
	for i := range hs {
		hs[i] = &holder{k: k, sem: sem, d: time.Duration(i+1) * time.Millisecond}
		hs[i].t = NewTimer(hs[i])
		k.WakeAt(hs[i].t, 0)
	}
	k.RunAll()
	for i, want := range []Time{0, Time(time.Millisecond), Time(3 * time.Millisecond)} {
		if hs[i].got != want {
			t.Errorf("holder %d got the semaphore at %v, want %v", i, hs[i].got, want)
		}
	}
	if waits, waited, _ := sem.WaitStats(); waits != 2 || waited != 4*time.Millisecond {
		t.Errorf("wait stats = %d waits, %v waited; want 2, 4ms", waits, waited)
	}
}

// TestKernelStats: the kernel counts process resumes, timer wake-ups and
// wake-ups for a later instant by where they wait — the heap or a lane —
// and the pooled events still handed out.
func TestKernelStats(t *testing.T) {
	k := NewKernel()
	l := k.NewLane()
	k.Spawn("p", func(e *Env) {
		e.Sleep(time.Microsecond) // heap
		e.Sleep(0)                // ready FIFO
		l.SleepUntil(e, e.Now().Add(time.Microsecond))
	})
	b := newDoorbell(k, NewCPU(k, 1), time.Microsecond, time.Microsecond, func() {})
	b.ring() // ready FIFO, then two heap wake-ups
	ev := k.AllocEvent()
	k.AllocEvent()
	k.RunAll()
	want := Stats{Resumes: 4, TimerWakes: 3, HeapPushes: 3, LanePushes: 1}
	if got := k.Stats(); got != want {
		t.Errorf("Stats() = %+v, want %+v", got, want)
	}
	if n := k.EventsOut(); n != 2 {
		t.Errorf("EventsOut() = %d, want 2", n)
	}
	ev.Fire()
	k.ReleaseEvent(ev)
	if n := k.EventsOut(); n != 1 {
		t.Errorf("EventsOut() after one release = %d, want 1", n)
	}
}
