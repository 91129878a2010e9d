package sim

// Event is a one-shot completion signal: one actor fires it exactly once, any
// number of processes and timers wait for it. Waiting on an already-fired
// event returns immediately, which is what makes it the join primitive for
// speculative work — a prefetch read fires its event when the device
// completes it, and the demand path that later needs the same pages waits on
// the event instead of issuing a duplicate read (a no-op when the prefetch
// already landed).
type Event struct {
	k       *Kernel
	fired   bool
	waiters []*proc
	w0      [1]*proc // inline buffer: the common case is a single waiter
}

// NewEvent creates an unfired event bound to the kernel.
func NewEvent(k *Kernel) *Event {
	ev := &Event{k: k}
	ev.waiters = ev.w0[:0]
	return ev
}

// Fired reports whether the event has fired.
func (ev *Event) Fired() bool { return ev.fired }

// Fire marks the event complete and wakes every waiter at the current
// virtual time. Firing twice panics: an event models one completion.
func (ev *Event) Fire() {
	if ev.fired {
		panic("sim: Event fired twice")
	}
	ev.fired = true
	for _, p := range ev.waiters {
		ev.k.unpark(p)
	}
	ev.waiters = ev.waiters[:0]
}

// Wait blocks the calling process until the event fires (returning
// immediately if it already has).
func (ev *Event) Wait(e *Env) {
	if ev.fired {
		return
	}
	ev.waiters = append(ev.waiters, e.p)
	e.block()
}

// WaitTimer is Wait for a timer: it reports true if the event has already
// fired, otherwise it queues t, to be woken at the instant the event fires,
// and reports false.
func (ev *Event) WaitTimer(t *Timer) bool {
	if ev.fired {
		return true
	}
	ev.waiters = append(ev.waiters, &t.p)
	return false
}

// AllocEvent returns an unfired event from the kernel's free list (or a
// fresh one). Hot simulation paths pair it with ReleaseEvent so one-shot
// completion signals stop allocating in the steady state; NewEvent remains
// the unpooled constructor for events with open-ended lifetimes.
func (k *Kernel) AllocEvent() *Event {
	k.eventsOut++
	if n := len(k.eventPool); n > 0 {
		ev := k.eventPool[n-1]
		k.eventPool = k.eventPool[:n-1]
		ev.fired = false
		return ev
	}
	ev := &Event{k: k}
	ev.waiters = ev.w0[:0]
	return ev
}

// ReleaseEvent returns a fired, waiter-free event to the free list. The
// caller must be its last user.
func (k *Kernel) ReleaseEvent(ev *Event) {
	if !ev.fired || len(ev.waiters) != 0 {
		panic("sim: ReleaseEvent of an event still in use")
	}
	k.eventsOut--
	k.eventPool = append(k.eventPool, ev)
}

// EventsOut reports the events AllocEvent handed out that ReleaseEvent has not
// taken back: zero once every pooled completion signal has been returned.
func (k *Kernel) EventsOut() int { return k.eventsOut }
