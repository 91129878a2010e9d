package vdb

import "testing"

// checkEngineDrained asserts what must hold of an engine whose kernel has run
// dry: no query in flight or holding memory, every replay scratch and
// segment timer back in its pool and clean, and — once the prefetches no
// query joined have been reaped — every prefetch record back too, and every
// event the kernel pooled returned to it.
func checkEngineDrained(t *testing.T, e *Engine) {
	t.Helper()
	if e.active != 0 || e.memInUse != 0 {
		t.Errorf("drained engine has %d active queries holding %d bytes", e.active, e.memInUse)
	}
	if len(e.scratch) != e.made.scratch {
		t.Errorf("%d of %d replay scratches back in the pool", len(e.scratch), e.made.scratch)
	}
	for _, s := range e.scratch {
		if len(s.inflight)+len(s.jobs) != 0 {
			t.Errorf("pooled scratch still tracks %d in-flight pages, %d jobs", len(s.inflight), len(s.jobs))
		}
	}
	e.reapPrefetches()
	if len(e.reap) != 0 {
		t.Errorf("%d unjoined prefetches never completed", len(e.reap))
	}
	if len(e.pfPool) != e.made.pf {
		t.Errorf("%d of %d prefetch records back in the pool", len(e.pfPool), e.made.pf)
	}
	for _, pj := range e.pfPool {
		if pj.ev != nil {
			t.Error("pooled prefetch record still holds an event")
		}
	}
	if len(e.tasks) != e.made.tasks {
		t.Errorf("%d of %d segment timers back in the pool", len(e.tasks), e.made.tasks)
	}
	for _, c := range e.tasks {
		if c.o != nil || c.held || c.run.steps != nil {
			t.Error("pooled segment timer still serves a query")
		}
	}
	if n := e.k.EventsOut(); n != 0 {
		t.Errorf("%d pooled events never released", n)
	}
}
