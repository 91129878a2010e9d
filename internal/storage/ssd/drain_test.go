package ssd

import (
	"testing"

	"svdbench/internal/sim"
)

// checkDrained asserts what must hold of a device (and its batcher, if any)
// once the kernel has run dry at virtual time end: no process alive and no
// wake-up pending, nothing outstanding, no fio job looping, every traced
// request retired, no late retirement left to settle, no unit busy past the
// final clock, every joint and read job back in its pool and idle, holding no
// reads, and the batcher's queues empty with both of its timers idle.
func checkDrained(t *testing.T, d *Device, b *Batcher, end sim.Time) {
	t.Helper()
	// Checked first: Stats below settles.
	if len(d.late) != 0 || d.lhead != 0 {
		t.Errorf("%d late retirements unsettled (head %d)", len(d.late)-d.lhead, d.lhead)
	}
	if d.k.Live() != 0 || d.k.Pending() != 0 || d.outstanding != 0 || d.looping != 0 {
		t.Errorf("drained device has %d live processes, %d pending wake-ups, %d outstanding requests, %d fio jobs looping",
			d.k.Live(), d.k.Pending(), d.outstanding, d.looping)
	}
	if d.tracer != nil {
		reads, writes := d.Stats()
		if r, w, _, _ := d.tracer.Totals(); r != reads || w != writes {
			t.Errorf("retired %d reads / %d writes, traced %d / %d", reads, writes, r, w)
		}
	}
	units := 0
	for op := range d.busy {
		f := &d.busy[op]
		units += f.n
		for i := 0; i < f.n; i++ {
			if at := f.at[(f.head+i)%len(f.at)]; at > end {
				t.Errorf("a unit is busy until %v, past the final clock %v", at, end)
			}
		}
	}
	if units != d.cfg.Slots {
		t.Errorf("the unit FIFOs hold %d of %d units", units, d.cfg.Slots)
	}
	if len(d.joints) != d.made.joints || len(d.jobs) != d.made.jobs {
		t.Errorf("pools hold %d of %d joints, %d of %d read jobs",
			len(d.joints), d.made.joints, len(d.jobs), d.made.jobs)
	}
	for _, j := range d.joints {
		if j.left != 0 || j.ev != nil {
			t.Errorf("pooled joint still counts %d requests (event %v)", j.left, j.ev)
		}
	}
	for _, r := range d.jobs {
		if r.j != nil || r.n != 0 || r.step != idle {
			t.Errorf("pooled read job holds a joint (%v), %d reads, step %d", r.j != nil, r.n, r.step)
		}
	}
	if b == nil {
		return
	}
	if len(b.pending)+b.head+len(b.completions)+b.chead != 0 {
		t.Errorf("batcher queues not reset: %d pending (head %d), %d completions (head %d)",
			len(b.pending), b.head, len(b.completions), b.chead)
	}
	if b.dispStep != idle || b.cplStep != idle {
		t.Errorf("batcher timers not idle: dispatcher step %d, completer step %d", b.dispStep, b.cplStep)
	}
}
