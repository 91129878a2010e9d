// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel drives actors through a virtual clock. An actor is either a
// timer (Timer), a state machine whose Callback the kernel calls at each of
// its wake-ups, or a process, a coroutine (iter.Pull) that the kernel resumes
// and that yields back whenever it waits for virtual time to pass or for a
// resource to become available. Exactly one actor executes at a time, on the
// goroutine that called Run, so a switch never goes through the Go scheduler
// and a panic in an actor surfaces in Run's caller. Events scheduled for the
// same instant are ordered by a monotonically increasing sequence number,
// which makes runs fully deterministic: the same program produces the same
// event order and the same virtual timestamps on every run.
//
// Every blocking primitive has a process form and a timer form that takes
// the same (at, seq) event slots — Env.Sleep and Kernel.WakeAt, CPU.Use and
// CPU.Burn, Semaphore.Acquire and AcquireTimer, Event.Wait and WaitTimer —
// so a process rewritten as a timer replays the same event sequence, at a
// call per wake-up instead of a coroutine switch.
//
// Run takes each next event from one of three sources: the event heap, the
// sorted lanes (Lane: a FIFO per stream of wake-ups whose times never
// decrease, such as a device's completions, which therefore never touch the
// heap) and the ready FIFO of wake-ups for the current instant. Whichever
// source an event waits in, it runs at the same (at, seq) slot. Run scans
// only the lanes that hold a wake-up.
//
// An effect needs no wake-up of its own when nothing acts on it: Reserve
// gives it the slot a wake-up would have taken and Passed reports when Run
// has gone past that slot, so its owner can apply it the next time it looks
// and keep the event order. A device retires all but the last read of a beam
// this way, and a CPU burst that must not queue starts with Claim and ends
// with Finish, so one wake-up can end every burst a beam claimed.
//
// The package also provides the resource primitives the benchmark needs on
// top of the raw kernel: counting semaphores with FIFO wait queues
// (Semaphore), one-shot completion signals (Event) and a multi-core CPU
// resource with utilisation accounting (CPU).
//
// Coroutines need a Go 1.23 or newer toolchain (see coro.go); the module's
// language version stays at 1.22.
package sim

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds. It converts freely to
// and from time.Duration.
type Duration = time.Duration

// MaxTime is the largest representable virtual time.
const MaxTime = Time(math.MaxInt64)

// Seconds returns the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Add returns the time advanced by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from earlier to t.
func (t Time) Sub(earlier Time) Duration { return Duration(t - earlier) }

func (t Time) String() string { return Duration(t).String() }

// event is a scheduled wake-up for a process. gen snapshots the process's
// recycling generation at schedule time, so a wake-up outlives its target
// harmlessly: a stale event for a since-recycled process is skipped.
type event struct {
	at   Time
	seq  uint64
	gen  uint64
	proc *proc
}

// eventHeap is a binary min-heap over (at, seq), hand-rolled rather than
// container/heap so pushes and pops move concrete values — the interface
// boxing of the stdlib heap would allocate on every scheduled wake-up, which
// is the kernel's hottest operation.
type eventHeap []event

func (h eventHeap) less(i, j int) bool { return h[i].before(&h[j]) }

// before reports whether ev runs before o: (at, seq) order.
func (ev *event) before(o *event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && s.less(l, smallest) {
			smallest = l
		}
		if r < n && s.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}

// procState tracks where a process is in its lifecycle.
type procState int

const (
	procRunnable procState = iota
	procBlocked
	procDone
)

func (s procState) String() string { return [...]string{"runnable", "blocked", "done"}[s] }

// proc is the kernel-side handle for one simulated process. Finished procs
// return to the kernel's free list with their coroutines suspended between
// bodies, so spawning a process on a warmed-up kernel allocates nothing and
// creates no coroutine: the recycled proc's loop just runs the next body.
type proc struct {
	id    int
	name  string
	state procState
	since Time   // virtual time of the last block (deadlock report)
	gen   uint64 // bumped on recycle; stale heap events are skipped
	env   *Env   // allocated once, reused across bodies

	// The coroutine (see coro.go): the kernel resumes the process with next,
	// the process gives control back with yield, stop ends a proc suspended
	// between bodies.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	body func(*Env)

	cb Callback // set on a Timer's proc: Run calls it instead of next
}

// Callback is a Timer's body: Run calls Wake at every wake-up the timer was
// scheduled for, where it would resume a process.
type Callback interface{ Wake() }

// Timer is a coroutine-less wake-up target. A state machine that wakes its
// Timer (WakeAt) where a process would sleep, and queues it (CPU.Burn,
// Semaphore.AcquireTimer, Event.WaitTimer) where the process would block,
// takes the same (at, seq) event slots and so replays the same event
// sequence. Live does not count timers: an owner that must know whether its
// timers finished tracks them itself.
type Timer struct{ p proc }

// NewTimer returns a timer whose wake-ups call cb.Wake.
func NewTimer(cb Callback) *Timer { return &Timer{p: proc{cb: cb}} }

// WakeAt schedules one wake-up of t at virtual time at (at the current
// instant if at is in the past).
func (k *Kernel) WakeAt(t *Timer, at Time) { k.schedule(&t.p, at) }

// Waker schedules a timer's wake-up: through the event heap (Kernel) or
// through a Lane, for a stream known to be monotone.
type Waker interface {
	WakeAt(t *Timer, at Time)
}

// Stats counts the kernel's work since it was created. The counts are exact
// — a function of the simulated program, not of the host — so a test can pin
// what a change to the program costs the kernel.
type Stats struct {
	Resumes    int64 // process resumes: coroutine switches into a process body
	TimerWakes int64 // Callback.Wake calls
	HeapPushes int64 // wake-ups for a later instant through the event heap
	LanePushes int64 // wake-ups for a later instant through a Lane
}

// Kernel is a discrete-event simulation instance. The zero value is not
// usable; create one with NewKernel.
type Kernel struct {
	now    Time
	seq    uint64
	cur    uint64    // seq of the event being dispatched; MaxUint64 outside Run
	events eventHeap // wake-ups scheduled for a later instant than the clock read
	lanes  []*Lane   // sorted streams of later wake-ups that bypass the heap
	full   uint64    // bit i set: lanes[i] holds a wake-up
	ready  []event   // wake-ups scheduled for now, in order; ready[:rhead] ran
	rhead  int
	nextID int
	live   int // processes spawned and not yet done

	procs     []*proc  // every proc with a coroutine, pooled or live
	free      []*proc  // recycled procs suspended between bodies
	eventPool []*Event // fired events returned via ReleaseEvent
	eventsOut int      // events AllocEvent handed out and not released
	stats     Stats

	deadlock func(k *Kernel) // called when no events remain but processes are blocked
}

// NewKernel returns an empty simulation at virtual time zero.
func NewKernel() *Kernel { return &Kernel{cur: math.MaxUint64} }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// schedule enqueues a wake-up for p at time at. A wake-up at the current
// instant skips the heap: it is appended to the ready FIFO, which Run drains
// after the heap's events at now (see Run for why that order is exact).
func (k *Kernel) schedule(p *proc, at Time) {
	k.seq++
	if at <= k.now {
		k.ready = append(k.ready, event{at: k.now, seq: k.seq, gen: p.gen, proc: p})
		return
	}
	k.stats.HeapPushes++
	k.events.push(event{at: at, seq: k.seq, gen: p.gen, proc: p})
}

// Slot is a place in Run's event order: an instant and, among the events at
// that instant, a sequence number.
type Slot struct {
	At  Time
	Seq uint64
}

// Reserve returns the slot a wake-up scheduled now for at would take — at no
// earlier than the clock — and schedules nothing. A model that applies an
// effect without a wake-up of its own (see ssd.Device) holds it in that slot
// and applies it once Passed reports the slot passed, so the effect keeps its
// place in the event order.
func (k *Kernel) Reserve(at Time) Slot {
	k.seq++
	return Slot{At: max(at, k.now), Seq: k.seq}
}

// Passed reports whether Run's order has passed slot s: whether s precedes
// the event being dispatched or, outside Run, lies at or before the clock.
func (k *Kernel) Passed(s Slot) bool {
	return s.At < k.now || (s.At == k.now && s.Seq < k.cur)
}

// Stats returns the kernel's work counts so far.
func (k *Kernel) Stats() Stats { return k.stats }

// Env is a process's handle to the simulation. Every simulated process
// receives one; all interaction with virtual time flows through it. An Env
// must only be used from inside the process that owns it.
type Env struct {
	k *Kernel
	p *proc
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.k.now }

// Kernel returns the kernel this process runs under.
func (e *Env) Kernel() *Kernel { return e.k }

// Name returns the process name given at Spawn time.
func (e *Env) Name() string { return e.p.name }

// Sleep suspends the process for d of virtual time. Negative or zero
// durations yield the processor but do not advance the clock.
func (e *Env) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	e.k.schedule(e.p, e.k.now.Add(d))
	e.block()
}

// SleepUntil suspends the process until virtual time t (or returns
// immediately if t is in the past).
func (e *Env) SleepUntil(t Time) {
	e.k.schedule(e.p, t)
	e.block()
}

// block hands control back to the kernel until a wake-up event for this
// process is dispatched: one the caller scheduled (Sleep), or one another
// process schedules via unpark (resource wait queues).
func (e *Env) block() {
	p := e.p
	p.state, p.since = procBlocked, e.k.now
	p.yield(struct{}{})
	p.state = procRunnable
}

// unpark schedules p to resume at the current virtual time.
func (k *Kernel) unpark(p *proc) { k.schedule(p, k.now) }

// Spawn creates a new simulated process executing fn, runnable at the current
// virtual time. fn runs as a coroutine under kernel control: a pooled proc
// (and its suspended coroutine) is reused when one is free. Spawn may be
// called before Run or from inside a running process.
func (k *Kernel) Spawn(name string, fn func(*Env)) {
	var p *proc
	if n := len(k.free); n > 0 {
		p = k.free[n-1]
		k.free = k.free[:n-1]
		p.name = name
	} else {
		k.nextID++
		p = &proc{id: k.nextID, name: name}
		p.env = &Env{k: k, p: p}
		p.start()
		k.procs = append(k.procs, p)
	}
	p.state, p.since = procBlocked, k.now
	p.body = fn
	k.live++
	k.schedule(p, k.now)
}

// recycle returns a finished proc to the free list for the next spawn.
func (k *Kernel) recycle(p *proc) {
	p.gen++
	k.free = append(k.free, p)
}

// drainPool ends the coroutine of every pooled proc. Called when a run
// reaches full quiescence — every proc is then back in the pool — so finished
// simulations leave no suspended coroutines behind (each holds a goroutine
// stack, and the core suite runs thousands of simulations per test binary).
func (k *Kernel) drainPool() {
	for _, p := range k.free {
		p.stop()
	}
	k.free = k.free[:0]
	k.procs = k.procs[:0]
}

// OnDeadlock installs a handler invoked if the event queue drains while
// processes are still alive but blocked (a genuine deadlock in the simulated
// program). The default panics with DeadlockReport.
func (k *Kernel) OnDeadlock(fn func(k *Kernel)) { k.deadlock = fn }

// DeadlockReport names every live process with its state and the virtual
// time it last blocked at — what a deadlock handler wants to print.
func (k *Kernel) DeadlockReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock at t=%v with %d live processes", k.now, k.live)
	for _, p := range k.procs {
		if p.state != procDone {
			fmt.Fprintf(&b, "\n  #%d %q %v since t=%v", p.id, p.name, p.state, p.since)
		}
	}
	return b.String()
}

// Run executes the simulation until no events remain or the virtual clock
// would pass until. It returns the virtual time at which the run stopped.
// Processes still blocked at the horizon remain blocked; Run may be called
// again with a later horizon to continue. The clock never moves backwards: a
// horizon before Now with events pending runs nothing and returns Now.
//
// Events run in (at, seq) order, taken from three places: the earliest of
// the heap top and the lane heads while it is at now, then the whole ready
// FIFO, then that earliest again, advancing the clock. That is exact: a heap
// or lane event at now was scheduled before the clock reached now, so its seq
// is below that of every ready entry, all of which were scheduled at now;
// nothing scheduled while the FIFO drains can join the heap or a lane at now;
// and the FIFO is empty whenever the clock advances.
func (k *Kernel) Run(until Time) Time {
	defer func() { k.cur = math.MaxUint64 }()
	if k.now > until && k.Pending() > 0 {
		return k.now
	}
	for {
		src, head := k.earliest()
		switch {
		case head != nil && head.at == k.now:
			k.dispatch(k.take(src))
			continue
		case k.rhead < len(k.ready):
			for k.rhead < len(k.ready) {
				ev := k.ready[k.rhead]
				k.rhead++
				k.dispatch(ev)
			}
			k.ready, k.rhead = k.ready[:0], 0
			continue
		case head == nil:
			if k.live > 0 {
				if k.deadlock != nil {
					k.deadlock(k)
					return k.now
				}
				panic(k.DeadlockReport())
			}
			k.drainPool()
			return k.now
		case head.at > until:
			k.now = until
			return k.now
		}
		ev := k.take(src)
		k.now = ev.at
		k.dispatch(ev)
	}
}

// dispatch runs one event: it calls a timer's Callback, or resumes a process
// until it blocks or terminates (a panic in the body propagates from here).
// A stale event, for a since-recycled or finished process, is skipped.
func (k *Kernel) dispatch(ev event) {
	k.cur = ev.seq
	p := ev.proc
	if ev.gen != p.gen || p.state == procDone {
		return
	}
	if p.cb != nil {
		k.stats.TimerWakes++
		p.cb.Wake()
		return
	}
	k.stats.Resumes++
	p.next()
	if p.state == procDone {
		k.live--
		k.recycle(p)
	}
}

// RunAll executes the simulation until every process has finished.
func (k *Kernel) RunAll() Time { return k.Run(MaxTime) }

// Live reports the number of processes that have been spawned and have not
// yet terminated.
func (k *Kernel) Live() int { return k.live }

// Pending reports the number of scheduled events, lane entries included.
func (k *Kernel) Pending() int {
	n := len(k.events) + len(k.ready) - k.rhead
	for _, l := range k.lanes {
		n += l.n
	}
	return n
}
