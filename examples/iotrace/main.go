// I/O tracing: capture the block-layer trace of a DiskANN search workload
// (the paper's bpftrace methodology), write it to CSV, and analyse it —
// bandwidth timeline, request-size histogram, and the O-15 4 KiB check.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"svdbench"
	"svdbench/internal/sim"
	"svdbench/internal/storage/ssd"
	"svdbench/internal/trace"
	"svdbench/internal/vdb"
)

func main() {
	spec, err := svdbench.CatalogSpec("cohere-small", svdbench.ScaleTiny)
	if err != nil {
		log.Fatal(err)
	}
	ds := svdbench.GenerateDataset(spec)
	col, err := svdbench.NewCollection("iotrace", ds.Spec.Dim, ds.Spec.Metric,
		svdbench.Milvus(), svdbench.IndexDiskANN, svdbench.DefaultBuildParams())
	if err != nil {
		log.Fatal(err)
	}
	if err := col.BulkLoad(ds.Vectors, nil); err != nil {
		log.Fatal(err)
	}
	var page int64
	col.AssignStorage(func(n int64) int64 { p := page; page += n; return p })
	execs := col.RecordQueries(ds.Queries, svdbench.PaperK,
		svdbench.SearchOptions{SearchList: 10, BeamWidth: 4})

	// Run 8 query threads with a raw-record tracer attached to the
	// device — the equivalent of probing block_rq_issue.
	k := sim.NewKernel()
	cpu := sim.NewCPU(k, 20)
	dev := ssd.New(k, cpu, ssd.DefaultConfig())
	tr := trace.NewTracer(true)
	tr.SetBucket(20 * time.Millisecond)
	dev.Attach(tr)
	eng := vdb.NewEngine(k, cpu, dev, svdbench.Milvus())
	deadline := sim.Time(400 * time.Millisecond)
	next := 0
	for t := 0; t < 8; t++ {
		c := &client{k: k, deadline: deadline, execs: execs, next: &next}
		timer := sim.NewTimer(c)
		c.op = eng.NewOp(timer)
		k.WakeAt(timer, k.Now())
	}
	k.RunAll()

	// Persist the raw trace like the paper's artifact does.
	f, err := os.CreateTemp("", "svdbench-trace-*.csv")
	if err != nil {
		log.Fatal(err)
	}
	if err := trace.WriteCSV(f, tr.Records()); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Printf("captured %d block requests → %s\n", len(tr.Records()), f.Name())

	// Analyse: totals, O-15, timeline.
	fmt.Println(tr.Summarize(400 * time.Millisecond))
	fmt.Printf("4 KiB fraction: %.4f%% (paper O-15: >99.99%%)\n\n", 100*tr.FractionOfSize(4096))
	fmt.Println("read bandwidth timeline (20ms buckets):")
	for _, p := range tr.Timeline() {
		bar := int(p.ReadMiBps(20*time.Millisecond)) / 4
		fmt.Printf("  %6dms %8.1f MiB/s %s\n",
			int64(time.Duration(p.Start)/time.Millisecond),
			p.ReadMiBps(20*time.Millisecond), bars(bar))
	}
	// Round-trip through the CSV reader, proving cmd/iostat compatibility.
	rf, err := os.Open(f.Name())
	if err != nil {
		log.Fatal(err)
	}
	defer rf.Close()
	records, err := trace.ReadCSV(rf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nCSV round trip: %d records re-read (analyse offline with cmd/iostat)\n", len(records))
}

// client is a closed-loop query thread: a timer that replays the recorded
// queries round-robin, starting each in the wake-up the last one finished
// in, until the clock reaches the deadline.
type client struct {
	k        *sim.Kernel
	op       *vdb.Op
	deadline sim.Time
	execs    []vdb.QueryExec
	next     *int // the threads' shared position in execs
	busy     bool // a query is in flight
}

func (c *client) Wake() {
	if c.busy && !c.op.Resume() {
		return
	}
	for {
		if err := c.op.Err(); err != nil {
			log.Fatal(err)
		}
		if c.k.Now() >= c.deadline {
			c.busy = false
			return
		}
		qe := &c.execs[*c.next]
		if *c.next++; *c.next == len(c.execs) {
			*c.next = 0
		}
		if !c.op.Query(qe) {
			c.busy = true
			return
		}
	}
}

func bars(n int) string {
	if n > 60 {
		n = 60
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
