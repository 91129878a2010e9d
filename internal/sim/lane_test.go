package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// wakeFunc is a Timer callback from a closure.
type wakeFunc func()

func (f wakeFunc) Wake() { f() }

// laneProgram interprets prog as a simulation of timers and processes and
// returns its resume log: a (time, name) line per wake-up, and the clock at
// every horizon of a Run sliced into 25µs steps. Each wake-up reads the next
// byte (prog repeats) to choose how the actor waits next: a heap sleep, a
// same-instant yield, a fork, or a wake-up on one of two streams whose times
// never decrease. With lanes set the streams go through two Lanes, otherwise
// through WakeAt and SleepUntil; the log must not tell the two apart.
func laneProgram(prog []byte, lanes bool) string {
	var log strings.Builder
	pos := 0
	next := func() int {
		if len(prog) == 0 {
			return 0
		}
		b := prog[pos%len(prog)]
		pos++
		return int(b)
	}
	delay := func() Duration { return Duration(next()%5) * 10 * time.Microsecond }

	k := NewKernel()
	var ls [2]*Lane
	if lanes {
		ls = [2]*Lane{k.NewLane(), k.NewLane()}
	}
	var last [2]Time // each stream's latest time
	streamAt := func(i int) Time {
		last[i] = max(last[i], k.Now()) + Time(next()%4)*Time(10*time.Microsecond)
		return last[i]
	}
	wake := func(t *Timer, i int) {
		if at := streamAt(i); lanes {
			ls[i].WakeAt(t, at)
		} else {
			k.WakeAt(t, at)
		}
	}
	budget := 300 // wake-ups that may still schedule another

	newTimer := func(name string) *Timer {
		var t *Timer
		t = NewTimer(wakeFunc(func() {
			fmt.Fprintf(&log, "%d %s\n", int64(k.Now()), name)
			if budget == 0 {
				return
			}
			budget--
			switch op := next() % 5; op {
			case 0:
				k.WakeAt(t, k.Now().Add(delay()))
			case 1, 2:
				wake(t, op-1)
			case 3:
				k.WakeAt(t, k.Now())
			case 4: // two wake-ups in flight from here on
				k.WakeAt(t, k.Now().Add(delay()))
				wake(t, 0)
			}
		}))
		return t
	}

	children := 0
	var body func(e *Env)
	body = func(e *Env) {
		for {
			fmt.Fprintf(&log, "%d %s\n", int64(e.Now()), e.Name())
			if budget == 0 {
				return
			}
			budget--
			switch op := next() % 5; op {
			case 0:
				e.Sleep(delay())
			case 1, 2:
				if at := streamAt(op - 1); lanes {
					ls[op-1].SleepUntil(e, at)
				} else {
					e.SleepUntil(at)
				}
			case 3:
				e.Sleep(0)
			case 4:
				children++
				k.Spawn(fmt.Sprintf("child%d", children), body)
				e.Sleep(delay())
			}
		}
	}

	timers, procs := 1+next()%3, 1+next()%3
	for i := 0; i < timers; i++ {
		k.WakeAt(newTimer(fmt.Sprintf("timer%d", i)), Time(delay()))
	}
	for i := 0; i < procs; i++ {
		k.Spawn(fmt.Sprintf("proc%d", i), body)
	}
	for h := Time(0); ; {
		h += Time(25 * time.Microsecond)
		fmt.Fprintf(&log, "-- horizon %d\n", int64(k.Run(h)))
		if k.Pending() == 0 {
			break
		}
	}
	if k.Live() != 0 {
		fmt.Fprintf(&log, "-- %d processes left alive\n", k.Live())
	}
	return log.String()
}

// checkLaneOrder fails t if prog's log differs between lanes and the heap.
func checkLaneOrder(t *testing.T, prog []byte) {
	t.Helper()
	heap, lanes := laneProgram(prog, false), laneProgram(prog, true)
	if heap != lanes {
		t.Fatalf("program %x: lanes diverge from the heap:\n--- heap ---\n%s\n--- lanes ---\n%s", prog, heap, lanes)
	}
}

// TestLaneMatchesHeap: wake-ups sent through lanes replay the event sequence
// of the same wake-ups sent through the heap, for seeded random programs of
// timers and processes.
func TestLaneMatchesHeap(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		prog := make([]byte, 64)
		rand.New(rand.NewSource(seed)).Read(prog)
		checkLaneOrder(t, prog)
	}
}

// FuzzLaneOrder is TestLaneMatchesHeap with the program's bytes from the
// fuzzer.
func FuzzLaneOrder(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		prog := make([]byte, 32)
		rand.New(rand.NewSource(seed)).Read(prog)
		f.Add(prog)
	}
	f.Add([]byte{})
	f.Add([]byte{1, 2, 1, 2, 4, 4})
	f.Fuzz(checkLaneOrder)
}

func TestLaneOutOfOrderPanics(t *testing.T) {
	check := func(t *testing.T, run func()) {
		t.Helper()
		defer func() {
			if msg, _ := recover().(string); !strings.HasPrefix(msg, "sim: lane wake-up out of order") {
				t.Errorf("panic %q, want a sim: lane message", msg)
			}
		}()
		run()
	}
	t.Run("timer", func(t *testing.T) {
		k := NewKernel()
		l := k.NewLane()
		tm := NewTimer(wakeFunc(func() {}))
		check(t, func() {
			l.WakeAt(tm, 20)
			l.WakeAt(tm, 10)
		})
	})
	t.Run("process", func(t *testing.T) {
		k := NewKernel()
		l := k.NewLane()
		k.Spawn("late", func(e *Env) { l.SleepUntil(e, 20) })
		k.Spawn("early", func(e *Env) { l.SleepUntil(e, 10) })
		check(t, func() { k.RunAll() })
	})
}

// TestLaneHorizon: Run stops before a lane event past the horizon, and the
// next Run dispatches it in (at, seq) order with the heap's.
func TestLaneHorizon(t *testing.T) {
	k := NewKernel()
	l := k.NewLane()
	var log []string
	timer := func(name string) *Timer {
		return NewTimer(wakeFunc(func() { log = append(log, fmt.Sprintf("%d %s", int64(k.Now()), name)) }))
	}
	l.WakeAt(timer("lane10"), 10)
	k.WakeAt(timer("heap20"), 20)
	l.WakeAt(timer("lane30a"), 30)
	k.WakeAt(timer("heap30"), 30)
	l.WakeAt(timer("lane30b"), 30)
	if end := k.Run(25); end != 25 || k.Pending() != 3 {
		t.Fatalf("first Run stopped at %d with %d pending, want 25 with 3", end, k.Pending())
	}
	if end := k.RunAll(); end != 30 {
		t.Fatalf("second Run ended at %d, want 30", end)
	}
	// A wake-up in the past runs at the current instant, as with WakeAt.
	l.WakeAt(timer("past"), 0)
	k.RunAll()
	want := "10 lane10|20 heap20|30 lane30a|30 heap30|30 lane30b|30 past"
	if got := strings.Join(log, "|"); got != want {
		t.Errorf("order %s, want %s", got, want)
	}
}

// TestLanePendingAndDeadlock: Pending counts lane entries, and a process
// whose only wake-up waits in a lane is not deadlocked.
func TestLanePendingAndDeadlock(t *testing.T) {
	k := NewKernel()
	l := k.NewLane()
	tm := NewTimer(wakeFunc(func() {}))
	l.WakeAt(tm, 5)
	l.WakeAt(tm, 7)
	k.WakeAt(tm, 6)
	if n := k.Pending(); n != 3 {
		t.Errorf("Pending() = %d, want 3 (two lane entries, one heap)", n)
	}
	k.RunAll()
	if n := k.Pending(); n != 0 {
		t.Errorf("Pending() = %d after the drain", n)
	}

	ev := NewEvent(k)
	deadAt := Time(-1)
	k.OnDeadlock(func(k *Kernel) { deadAt = k.Now() })
	k.Spawn("sleeper", func(e *Env) {
		l.SleepUntil(e, 50)
		ev.Wait(e) // never fired: the deadlock comes here
	})
	k.RunAll()
	if deadAt != 50 {
		t.Errorf("deadlock reported at t=%d, want 50: the lane entry must count as pending", int64(deadAt))
	}
}
