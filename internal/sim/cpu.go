package sim

// CPU models a fixed pool of identical cores. Compute bursts occupy one core
// for a span of virtual time; when all cores are busy, bursts queue in FIFO
// order behind a fair scheduler. The model matches the paper's testbed
// configuration (Sec. III-A): a fixed core count with hyper-threading and
// frequency boost disabled, so one burst of work always costs the same
// virtual time.
//
// Busy time is accounted cumulatively so a caller can compute utilisation
// over any window, which is how Figure 4's global CPU usage is produced.
type CPU struct {
	sem   *Semaphore
	cores int
	busy  Duration // cumulative core-busy virtual time

	inUse  int                      // bursts currently holding cores
	notify func(at Time, busy bool) // idle↔busy transition hook
}

// NewCPU creates a CPU with the given number of cores.
func NewCPU(k *Kernel, cores int) *CPU {
	return &CPU{sem: NewSemaphore(k, "cpu", int64(cores)), cores: cores}
}

// Cores returns the number of cores.
func (c *CPU) Cores() int { return c.cores }

// SetBusyNotify installs a hook called on every idle↔busy transition: fn is
// invoked with busy=true when the first burst starts executing on a core and
// busy=false when the last one finishes. The tracer uses it to measure how
// much of a run the CPU and the device overlap. Pass nil to detach.
func (c *CPU) SetBusyNotify(fn func(at Time, busy bool)) { c.notify = fn }

// Use occupies one core for d of virtual time, queueing if all cores are
// busy. Zero and negative durations are no-ops. It is the process form of
// Burn.
func (c *CPU) Use(e *Env, d Duration) {
	if d <= 0 {
		return
	}
	if !c.sem.acquireOrQueue(e.p, 1) {
		e.block()
	}
	c.granted()
	e.Sleep(d)
	c.end(d)
}

// Burst is a CPU burst in timer form: where it stands between the wake-ups
// of the timer that runs it. The zero value is a burst not yet begun.
type Burst struct {
	d     Duration
	state uint8 // burstIdle, burstQueued or burstRunning
}

const (
	burstIdle    = iota // not begun, or finished
	burstQueued         // waiting for a core
	burstRunning        // holding a core until t's next wake-up
)

// Burn is Use for a timer: call it where the process would call Use, and
// again at each of t's wake-ups until it reports the burst finished. The
// first call claims a core, or queues t FIFO for one; once a core is
// granted, w wakes t at the end of the burst of d. A non-positive d finishes
// at once. Burn takes the same (at, seq) slots as Use, so the two replay the
// same event sequence.
func (c *CPU) Burn(t *Timer, b *Burst, d Duration, w Waker) bool {
	switch b.state {
	case burstIdle:
		if d <= 0 {
			return true
		}
		b.d = d
		if !c.sem.acquireOrQueue(&t.p, 1) {
			b.state = burstQueued
			return false
		}
	case burstRunning:
		c.end(b.d)
		b.state = burstIdle
		return true
	}
	c.granted()
	b.state = burstRunning
	w.WakeAt(t, c.sem.k.now.Add(b.d))
	return false
}

// granted marks a burst holding its core from now, firing the busy hook on
// the idle→busy edge.
func (c *CPU) granted() {
	c.inUse++
	if c.inUse == 1 && c.notify != nil {
		c.notify(c.sem.k.now, true)
	}
}

// end finishes a burst of length d: it fires the busy hook on the busy→idle
// edge and hands the core to the next queued burst.
func (c *CPU) end(d Duration) {
	c.inUse--
	if c.inUse == 0 && c.notify != nil {
		c.notify(c.sem.k.now, false)
	}
	c.sem.Release(1)
	c.busy += d
}

// BusyTime returns cumulative core-busy virtual time since creation.
func (c *CPU) BusyTime() Duration { return c.busy }

// Utilization returns mean CPU utilisation in [0,1] given the busy time at
// the start of a window, the busy time at its end, and the window length.
func Utilization(busyStart, busyEnd Duration, window Duration, cores int) float64 {
	if window <= 0 || cores <= 0 {
		return 0
	}
	return float64(busyEnd-busyStart) / (float64(window) * float64(cores))
}
