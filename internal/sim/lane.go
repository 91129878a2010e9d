package sim

import (
	"fmt"
	"math/bits"
)

// Lane is a FIFO of wake-ups whose times never decrease: a stream of events
// the heap would only sort back into the order they were scheduled in. A
// device's doorbell ends (now plus a fixed cost) and its completions (a
// serial bus plus a fixed latency) are such streams.
//
// A wake-up through a lane takes the seq WakeAt or SleepUntil would give it,
// and its lane is sorted by (at, seq) — at never decreases and seq only
// grows — so its head is its earliest event. Run takes the earliest of the
// heap top and every lane head, which is the event one heap holding them all
// would pop: the event order is the heap's by construction. A wake-up
// earlier than the lane's latest panics; there is no fallback to the heap.
//
// The queue is a ring that grows only when full, so its storage is bounded
// by the lane's peak occupancy. Run looks only at the heads of lanes that hold
// a wake-up, through a bitmask, so an idle lane costs it nothing; a kernel
// has at most 64 lanes.
type Lane struct {
	k       *Kernel
	ring    []event // ring[head], ring[head+1], … (mod len) are queued
	head, n int
	bit     uint64 // the lane's bit in the kernel's mask of non-empty lanes
	last    Time   // latest wake-up scheduled: no later one may precede it
}

// NewLane returns an empty lane feeding the kernel's Run. It panics if the
// kernel already has 64 lanes.
func (k *Kernel) NewLane() *Lane {
	if len(k.lanes) == 64 {
		panic("sim: more than 64 lanes on one kernel")
	}
	l := &Lane{k: k, bit: 1 << len(k.lanes)}
	k.lanes = append(k.lanes, l)
	return l
}

// WakeAt is Kernel.WakeAt through the lane: it schedules one wake-up of t at
// virtual time at (at the current instant if at is in the past).
func (l *Lane) WakeAt(t *Timer, at Time) { l.schedule(&t.p, at) }

// SleepUntil is Env.SleepUntil through the lane: it suspends the calling
// process until virtual time at.
func (l *Lane) SleepUntil(e *Env, at Time) {
	l.schedule(e.p, at)
	e.block()
}

// schedule is Kernel.schedule for a monotone stream: a wake-up at the current
// instant joins the ready FIFO as it would there, a later one the ring's tail.
func (l *Lane) schedule(p *proc, at Time) {
	k := l.k
	at = max(at, k.now)
	if at < l.last {
		panic(fmt.Sprintf("sim: lane wake-up out of order: t=%v after t=%v", at, l.last))
	}
	l.last = at
	if at == k.now {
		k.schedule(p, at)
		return
	}
	k.seq++
	k.stats.LanePushes++
	if l.n == len(l.ring) {
		ring := make([]event, max(8, 2*len(l.ring)))
		n := copy(ring, l.ring[l.head:])
		copy(ring[n:], l.ring[:l.head])
		l.ring, l.head = ring, 0
	}
	i := l.head + l.n
	if i >= len(l.ring) {
		i -= len(l.ring)
	}
	l.ring[i] = event{at: at, seq: k.seq, gen: p.gen, proc: p}
	l.n++
	k.full |= l.bit
}

// pop removes and returns the lane's head.
func (l *Lane) pop() event {
	ev := l.ring[l.head]
	l.head++
	if l.head == len(l.ring) {
		l.head = 0
	}
	l.n--
	if l.n == 0 {
		l.k.full &^= l.bit
	}
	return ev
}

// earliest returns the next event Run dispatches from outside the ready FIFO:
// the earliest in (at, seq) order of the heap top and every lane head. src is
// the lane holding it, nil for the heap; head is nil when all are empty.
func (k *Kernel) earliest() (src *Lane, head *event) {
	if len(k.events) > 0 {
		head = &k.events[0]
	}
	for m := k.full; m != 0; m &= m - 1 {
		l := k.lanes[bits.TrailingZeros64(m)]
		if h := &l.ring[l.head]; head == nil || h.before(head) {
			src, head = l, h
		}
	}
	return src, head
}

// take pops the event earliest found: src's head, or the heap top if src is
// nil.
func (k *Kernel) take(src *Lane) event {
	if src != nil {
		return src.pop()
	}
	return k.events.pop()
}
