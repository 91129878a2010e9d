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
	step         int
}

const (
	bellIdle = iota
	bellSpawned
	bellQueued
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
	case bellSpawned:
		if !b.cpu.Start(b.t) {
			b.step = bellQueued
			return
		}
		fallthrough
	case bellQueued:
		b.cpu.Granted()
		b.step = bellBurst
		b.k.WakeAt(b.t, b.k.Now().Add(b.burst))
	case bellBurst:
		b.cpu.End(b.burst)
		b.step = bellPause
		b.k.WakeAt(b.t, b.k.Now().Add(b.pause))
	case bellPause:
		b.step = bellIdle
		b.then()
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
			k.Spawn(fmt.Sprintf("listener%d", round), func(le *Env) {
				l.at(le)
				ev.Wait(le)
				l.at(le)
			})
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
