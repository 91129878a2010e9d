package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// Property: under random workloads, a semaphore never exceeds its capacity
// and every process completes.
func TestPropertySemaphoreNeverOverCommits(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := NewKernel()
		capacity := int64(1 + r.Intn(4))
		sem := NewSemaphore(k, "s", capacity)
		cpu := NewCPU(k, 2)
		procs := 3 + r.Intn(10)
		violated := false
		done := 0
		for i := 0; i < procs; i++ {
			hold := time.Duration(1+r.Intn(500)) * time.Microsecond
			n := int64(1 + r.Intn(int(capacity)))
			start := time.Duration(r.Intn(200)) * time.Microsecond
			k.Spawn("p", func(e *Env) {
				e.Sleep(start)
				sem.Acquire(e, n)
				if sem.Held() > capacity {
					violated = true
				}
				cpu.Use(e, hold)
				sem.Release(n)
				done++
			})
		}
		k.RunAll()
		return !violated && done == procs && sem.Held() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the virtual clock never moves backwards across random event
// sequences.
func TestPropertyClockMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := NewKernel()
		ok := true
		var last Time
		for i := 0; i < 8; i++ {
			k.Spawn("p", func(e *Env) {
				for j := 0; j < 5; j++ {
					e.Sleep(time.Duration(r.Intn(1000)) * time.Microsecond)
					if e.Now() < last {
						ok = false
					}
					last = e.Now()
				}
			})
		}
		k.RunAll()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: total CPU busy time equals the sum of requested bursts,
// regardless of contention.
func TestPropertyCPUBusyConserved(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := NewKernel()
		cpu := NewCPU(k, 1+r.Intn(4))
		var want Duration
		for i := 0; i < 10; i++ {
			d := time.Duration(1+r.Intn(300)) * time.Microsecond
			want += d
			k.Spawn("p", func(e *Env) { cpu.Use(e, d) })
		}
		k.RunAll()
		return cpu.BusyTime() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
