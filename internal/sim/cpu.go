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
// the burst a Timer runs with Start, Granted and End.
func (c *CPU) Use(e *Env, d Duration) {
	if d <= 0 {
		return
	}
	if !c.sem.acquireOrQueue(e.p, 1) {
		e.block()
	}
	c.Granted()
	e.Sleep(d)
	c.End(d)
}

// Start claims a core for t, reporting true if one is free now; otherwise t
// queues FIFO and wakes when a core is granted. Either way t then calls
// Granted, wakes itself after the burst, and calls End.
func (c *CPU) Start(t *Timer) bool { return c.sem.acquireOrQueue(&t.p, 1) }

// Granted marks a burst holding its core from now, firing the busy hook on
// the idle→busy edge.
func (c *CPU) Granted() {
	c.inUse++
	if c.inUse == 1 && c.notify != nil {
		c.notify(c.sem.k.now, true)
	}
}

// End finishes a burst of length d: it fires the busy hook on the busy→idle
// edge and hands the core to the next queued burst.
func (c *CPU) End(d Duration) {
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

// InUse returns the number of cores currently occupied.
func (c *CPU) InUse() int { return int(c.sem.Held()) }

// QueueLen returns the number of bursts waiting for a core.
func (c *CPU) QueueLen() int { return c.sem.QueueLen() }
