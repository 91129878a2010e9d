package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer (or one phase of the
// benchmark itself). Spans nest workload → phase (setup, round-i, probe) →
// operation; Parent is 0 for the root. Times are host nanoseconds since the
// tracer was created.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     string `json:"op"`
	Name   string `json:"name,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans in one preallocated in-memory slice, written out when
// the run ends. Every span is opened and closed by the goroutine that runs
// the workload. A nil *tracer (the untraced pass) does nothing, so workload
// code is written once and end-to-end metrics are measured with tracing off.
type tracer struct {
	t0    time.Time
	spans []span // in opening order; a span's id is its index + 1
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span under parent and returns its id (0 when tracing is off).
func (t *tracer) begin(parent int32, op, name string) int32 {
	if t == nil {
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

// end closes the span begin returned id for.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval covered by its direct children. Children that overlap are counted
// once where they do.
func selfTimes(spans []span) map[int32]int64 {
	children := map[int32][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - coveredBy(s, children[s.ID])
	}
	return self
}

// coveredBy is the length of the union of the children's intervals, clipped
// to the parent.
func coveredBy(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sorted := append([]span(nil), kids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	var covered int64
	cursor := parent.Start
	for _, k := range sorted {
		lo, hi := k.Start, k.End
		if lo < cursor {
			lo = cursor
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			covered += hi - lo
			cursor = hi
		}
	}
	return covered
}

// writeTrace stores the spans and their self times as one JSON document.
func writeTrace(path string, workload string, spans []span) error {
	self := selfTimes(spans)
	type row struct {
		span
		SelfNs int64 `json:"self_ns"`
	}
	rows := make([]row, len(spans))
	for i, s := range spans {
		rows[i] = row{span: s, SelfNs: self[s.ID]}
	}
	enc, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []row  `json:"spans"`
	}{workload, rows})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}
