package sim

import "fmt"

// Semaphore is a counting semaphore with a FIFO wait queue. Acquire order is
// strictly first-come-first-served, which keeps simulations deterministic and
// models fair schedulers.
type Semaphore struct {
	k        *Kernel
	name     string
	capacity int64
	held     int64
	waiters  []semWaiter
	head     int // waiters[:head] have been granted

	// accounting
	totalWaits   int64
	totalWaitDur Duration
	maxQueue     int
}

type semWaiter struct {
	p     *proc
	n     int64
	since Time
}

// NewSemaphore creates a semaphore with the given capacity.
func NewSemaphore(k *Kernel, name string, capacity int64) *Semaphore {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: semaphore %q capacity must be positive, got %d", name, capacity))
	}
	return &Semaphore{k: k, name: name, capacity: capacity}
}

// Capacity returns the semaphore's total capacity.
func (s *Semaphore) Capacity() int64 { return s.capacity }

// Held returns the number of units currently held.
func (s *Semaphore) Held() int64 { return s.held }

// QueueLen returns the number of processes and timers waiting to acquire.
func (s *Semaphore) QueueLen() int { return len(s.waiters) - s.head }

// Acquire obtains n units, blocking in FIFO order until they are available.
func (s *Semaphore) Acquire(e *Env, n int64) {
	if n <= 0 || n > s.capacity {
		panic(fmt.Sprintf("sim: semaphore %q: acquire %d with capacity %d", s.name, n, s.capacity))
	}
	if !s.acquireOrQueue(e.p, n) {
		e.block()
	}
}

// AcquireTimer is Acquire for a timer: it reports true if it took n units at
// once, otherwise it queues t FIFO, to be woken at the instant the units are
// granted, and reports false.
func (s *Semaphore) AcquireTimer(t *Timer, n int64) bool {
	if n <= 0 || n > s.capacity {
		panic(fmt.Sprintf("sim: semaphore %q: acquire %d with capacity %d", s.name, n, s.capacity))
	}
	return s.acquireOrQueue(&t.p, n)
}

// acquireOrQueue takes n units for p if they are free and nobody queues
// ahead, reporting true; otherwise it queues p FIFO, to be woken at the
// instant dispatch grants it the units, and reports false.
func (s *Semaphore) acquireOrQueue(p *proc, n int64) bool {
	if s.tryAcquire(n) {
		return true
	}
	s.totalWaits++
	if s.head >= 4096 {
		// Under continuous contention the queue never empties; slide the
		// waiting tail down so the backing array stays bounded.
		s.waiters = s.waiters[:copy(s.waiters, s.waiters[s.head:])]
		s.head = 0
	}
	s.waiters = append(s.waiters, semWaiter{p: p, n: n, since: s.k.now})
	if s.QueueLen() > s.maxQueue {
		s.maxQueue = s.QueueLen()
	}
	return false
}

// tryAcquire takes n units if they are free and nobody queues ahead,
// reporting whether it did.
func (s *Semaphore) tryAcquire(n int64) bool {
	if s.QueueLen() == 0 && s.held+n <= s.capacity {
		s.held += n
		return true
	}
	return false
}

// Release returns n units and wakes as many FIFO waiters as now fit.
func (s *Semaphore) Release(n int64) {
	s.held -= n
	if s.held < 0 {
		panic(fmt.Sprintf("sim: semaphore %q released below zero", s.name))
	}
	s.dispatch()
}

// dispatch grants the semaphore to queued waiters in FIFO order while
// capacity remains. A large waiter at the head blocks smaller ones behind it
// (no barging), preserving fairness. Granted waiters are skipped by a head
// index, and the storage is reset — not re-sliced away — once the queue
// empties, so a contended semaphore stops allocating.
func (s *Semaphore) dispatch() {
	for s.head < len(s.waiters) {
		w := s.waiters[s.head]
		if s.held+w.n > s.capacity {
			return
		}
		s.held += w.n
		s.totalWaitDur += s.k.now.Sub(w.since)
		s.head++
		s.k.unpark(w.p)
	}
	s.waiters, s.head = s.waiters[:0], 0
}

// WaitStats reports the number of acquisitions that had to wait, the total
// virtual time spent waiting, and the maximum queue length observed.
func (s *Semaphore) WaitStats() (waits int64, total Duration, maxQueue int) {
	return s.totalWaits, s.totalWaitDur, s.maxQueue
}
