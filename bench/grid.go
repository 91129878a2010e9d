package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"svdbench/internal/core"
	"svdbench/internal/dataset"
	"svdbench/internal/vdb"
)

// gridDataset is the catalog dataset the grid runs on, at dataset.ScaleTiny:
// the only scale at which a whole build → tune → record → replay pass over
// the paper's seven setups fits several times into one run. The dataset is
// the catalog's own (the harness seeds it from its name); the benchmark's
// seed perturbs the replay's thread start offsets instead.
const gridDataset = "cohere-small"

// gridThreads are the concurrency levels of every setup's cells.
var gridThreads = []int{1, 16, 256}

// gridRecallFloor is the recall@10 each setup must reach: the paper's 0.9
// target, except for LanceDB-IVF_PQ which reuses Milvus's nprobe and whose
// achieved recall the paper merely reports.
func gridRecallFloor(s vdb.Setup) float64 {
	if s.Index == vdb.IndexIVFPQ {
		return 0.5
	}
	return core.TargetRecall
}

type grid struct {
	c      *runConfig
	genDur time.Duration
	// rows are the rendered result rows of each iteration, in order; all
	// iterations must render the same bytes.
	rows [][]byte
	// iters holds each iteration's per-stage host time, for the core.* rows.
	iters []gridIter
	bench *core.Bench // the latest iteration's bench, kept resident
}

type gridIter struct {
	build, stack, cells time.Duration
	served              int64
	recall              float64  // mean over setups
	simQPS, simP99      float64  // geometric mean over cells
	problems            []string // failed steps, reported as notes
}

func setupGrid(c *runConfig, sb *tracer, parent int32) (instance, error) {
	// What the harness does before its first stack: generate the dataset.
	id := sb.begin(parent, "dataset.generate", gridDataset)
	start := time.Now()
	_, err := core.NewBench(dataset.ScaleTiny, "").Dataset(gridDataset)
	g := &grid{c: c, genDur: time.Since(start)}
	sb.end(id)
	return g, err
}

// round is one iteration: a fresh bench takes all seven paper setups from
// nothing to finished throughput/latency rows. An operation is one grid step
// (a Bench.Stack or a RunCell call).
func (g *grid) round(sb *tracer, parent int32) roundSample {
	var r roundSample
	var it gridIter
	var out bytes.Buffer
	var logQPS, logP99 float64
	cells := 0
	start := time.Now()
	b := core.NewBench(dataset.ScaleTiny, "")
	setups := vdb.PaperSetups()
	for _, setup := range setups {
		id := sb.begin(parent, "bench.stack", setup.Label())
		t0 := time.Now()
		st, err := b.Stack(gridDataset, setup)
		d := time.Since(t0)
		sb.end(id)
		r.ops++
		r.latUs = append(r.latUs, us(d))
		if err != nil {
			r.failed++
			it.problems = append(it.problems, fmt.Sprintf("%s: %v", setup.Label(), err))
			continue
		}
		it.stack += d
		it.build += st.BuildTime
		it.recall += st.Recall / float64(len(setups))
		if st.Recall < gridRecallFloor(setup) {
			r.failed++
			it.problems = append(it.problems, fmt.Sprintf("%s: recall %.3f", setup.Label(), st.Recall))
		}
		for _, threads := range gridThreads {
			id := sb.begin(parent, "bench.run_cell", setup.Label())
			t0 := time.Now()
			m := b.RunCell(st, st.Execs, core.RunConfig{
				Threads: threads, Duration: 2 * g.c.sizes.simWindow, Repetitions: 1, Seed: g.c.seed,
			}, "grid").Metrics
			d := time.Since(t0)
			sb.end(id)
			it.cells += d
			it.served += m.Served
			r.ops++
			r.latUs = append(r.latUs, us(d))
			if m.Served == 0 {
				r.failed++
				it.problems = append(it.problems, fmt.Sprintf("%s: no query served at %d threads", setup.Label(), threads))
				continue
			}
			logQPS += math.Log(m.QPS)
			logP99 += math.Log(us(m.P99))
			cells++
			fmt.Fprintf(&out, "%s\tthreads=%d\trecall=%.4f\t%s\n", setup.Label(), threads, st.Recall, m)
		}
	}
	r.wall = time.Since(start)
	if cells > 0 {
		it.simQPS = math.Exp(logQPS / float64(cells))
		it.simP99 = math.Exp(logP99 / float64(cells))
	}
	g.bench = b
	g.rows = append(g.rows, out.Bytes())
	g.iters = append(g.iters, it)
	return r
}

func (g *grid) verify([]roundSample) verdict {
	var v verdict
	for i, rows := range g.rows {
		v.check(bytes.Equal(rows, g.rows[0]), "iteration %d rendered different rows than iteration 0", i)
	}
	for _, it := range g.iters {
		v.notes = append(v.notes, it.problems...)
	}
	last := g.iters[len(g.iters)-1]
	v.recall = last.recall
	// The grid has no single core.Metrics; the geometric means over its
	// cells stand in the two fields the end-to-end metrics read.
	v.sim.QPS = last.simQPS
	v.sim.P99 = time.Duration(last.simP99 * float64(time.Microsecond))
	return v
}
