package vdb

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"svdbench/internal/index"
	"svdbench/internal/sim"
	"svdbench/internal/storage/ssd"
	"svdbench/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// syntheticExecs draws a fixed workload that takes every branch of the
// replay: graph-style queries (one to three segments of beam hops, one to
// four pages wide, with node-cache hits, each hop prefetching part of the
// next hop's beam plus a page nothing demands) and cluster-style queries (a
// CPU-only navigation step that prefetches the first posting list, then
// contiguous multi-page reads each prefetching the next), with single-page
// steps falling out of both.
func syntheticExecs() []QueryExec {
	r := rand.New(rand.NewSource(7))
	page := func() int64 { return r.Int63n(1 << 20) }
	us := func(lo, n int) time.Duration { return time.Duration(lo+r.Intn(n)) * time.Microsecond }
	execs := make([]QueryExec, 24)
	for qi := range execs {
		if qi%3 == 2 {
			runs := make([][]int64, 3+r.Intn(4))
			for i := range runs {
				first := page()
				runs[i] = make([]int64, 1+r.Intn(8))
				for j := range runs[i] {
					runs[i][j] = first + int64(j)
				}
			}
			steps := []index.Step{{Work: burn(us(30, 40)), Prefetch: []index.PrefetchRun{{Pages: runs[0], Contiguous: true}}}}
			for i, run := range runs {
				s := index.Step{Work: burn(us(10, 60)), Pages: run, Contiguous: true}
				if i+1 < len(runs) {
					s.Prefetch = []index.PrefetchRun{{Pages: runs[i+1], Contiguous: true}}
				}
				steps = append(steps, s)
			}
			execs[qi].Segments = [][]index.Step{steps}
			continue
		}
		for seg := 1 + r.Intn(3); seg > 0; seg-- {
			hops := make([][]int64, 3+r.Intn(5))
			for i := range hops {
				hops[i] = make([]int64, 1+r.Intn(4))
				for j := range hops[i] {
					hops[i][j] = page()
				}
			}
			var steps []index.Step
			for i, hop := range hops {
				s := index.Step{Work: burn(us(5, 50)), Pages: hop, CachePages: int32(r.Intn(3))}
				if i+1 < len(hops) {
					next := hops[i+1]
					guess := append([]int64{page()}, next[:1+r.Intn(len(next))]...)
					s.Prefetch = []index.PrefetchRun{{Pages: guess}}
				}
				steps = append(steps, s)
			}
			execs[qi].Segments = append(execs[qi].Segments, steps)
		}
	}
	return execs
}

// replayLine replays the workload with the given closed-loop query and
// insert/delete client counts and renders the run as one golden line. The
// clients are timers driving the engine's Op, or, with procs, processes
// running the reference replay of engine_ref_test.go. A query refused for
// memory counts in the line's oom field, which is left out when zero.
func replayLine(t *testing.T, tr Traits, execs []QueryExec, clients, writers int, coalesce, procs bool) string {
	const perClient = 8
	k := sim.NewKernel()
	cpu := sim.NewCPU(k, 8)
	dev := ssd.New(k, cpu, ssd.DefaultConfig())
	tracer := trace.NewTracer(false)
	dev.Attach(tracer)
	cpu.SetBusyNotify(tracer.SetCPUBusy)
	eng := NewEngine(k, cpu, dev, tr)
	eng.cost = testCost
	if coalesce {
		eng.SetBatcher(ssd.NewBatcher(dev))
	}
	lats := make([]sim.Duration, clients*perClient)
	running := clients
	for c := 0; c < clients+writers; c++ {
		c := c
		if !procs {
			tc := &testClient{t: t, k: k, execs: execs, running: &running, n: perClient}
			if c < clients {
				tc.c, tc.lats = c, lats[c*perClient:(c+1)*perClient]
			} else {
				tc.c = -1
			}
			tc.op = eng.NewOp(sim.NewTimer(tc))
			k.WakeAt(tc.op.t, k.Now())
			continue
		}
		if c >= clients {
			k.Spawn("writer", func(e *sim.Env) {
				for i := 0; running > 0; i++ {
					if i%8 == 7 {
						eng.RunDelete(e)
					} else {
						eng.RunInsert(e, 768*4)
					}
				}
			})
			continue
		}
		k.Spawn("client", func(e *sim.Env) {
			for i := 0; i < perClient; i++ {
				start := e.Now()
				if err := eng.RunQuery(e, &execs[(c*7+i)%len(execs)]); err != nil && !errors.Is(err, ErrOutOfMemory) {
					t.Errorf("query failed: %v", err)
				}
				lats[c*perClient+i] = e.Now().Sub(start)
			}
			running--
		})
	}
	end := k.RunAll()
	tracer.FinishAt(end)
	checkEngineDrained(t, eng)
	if !procs && running != 0 {
		t.Errorf("%d query clients never finished", running)
	}
	h := sha256.New()
	for _, l := range lats {
		binary.Write(h, binary.LittleEndian, int64(l))
	}
	sum := tracer.Summarize(end.Sub(0))
	line := fmt.Sprintf("lat=%x end=%d served=%d reads=%d read_bytes=%d writes=%d cache_pages=%d max_depth=%d mean_depth=%.6f overlap=%.6f cpu_busy=%d",
		h.Sum(nil)[:12], int64(end), eng.Served(), sum.ReadOps, sum.ReadBytes, sum.WriteOps,
		sum.CacheHits, sum.MaxQueueDepth, sum.MeanQueueDepth, sum.OverlapFrac, int64(cpu.BusyTime()))
	if n := eng.oomFailed; n > 0 {
		line += fmt.Sprintf(" oom=%d", n)
	}
	return line
}

// testClient is the timer form of replayLine's client processes: query
// client c (c ≥ 0) runs its n queries back to back, recording each latency;
// a writer (c < 0) alternates inserts and deletes while any query client
// runs.
type testClient struct {
	t       *testing.T
	k       *sim.Kernel
	op      *Op
	execs   []QueryExec
	lats    []sim.Duration
	running *int
	c, i, n int // client, operations finished, queries to run
	start   sim.Time
	busy    bool
}

func (tc *testClient) Wake() {
	if tc.busy {
		if !tc.op.Resume() {
			return
		}
		tc.finish()
	}
	for tc.more() {
		tc.start = tc.k.Now()
		var done bool
		switch {
		case tc.c >= 0:
			done = tc.op.Query(&tc.execs[(tc.c*7+tc.i)%len(tc.execs)])
		case tc.i%8 == 7:
			done = tc.op.Delete()
		default:
			done = tc.op.Insert(768 * 4)
		}
		if tc.busy = !done; tc.busy {
			return
		}
		tc.finish()
	}
	if tc.c >= 0 {
		*tc.running--
	}
}

func (tc *testClient) more() bool {
	if tc.c < 0 {
		return *tc.running > 0
	}
	return tc.i < tc.n
}

func (tc *testClient) finish() {
	if tc.c >= 0 {
		if err := tc.op.Err(); err != nil && !errors.Is(err, ErrOutOfMemory) {
			tc.t.Errorf("query failed: %v", err)
		}
		tc.lats[tc.i] = tc.k.Now().Sub(tc.start)
	}
	tc.i++
}

// TestReplayGolden pins the engine's replay in virtual time: per-query
// latencies, device traffic, queue depth and CPU burnt for the four engines'
// traits at 1, 8 and 64 closed-loop clients, per-request (the published
// tables' policy, beside writers) and coalesced with and without look-ahead
// (Extension F's). The file was recorded on the two-path replay that
// preceded the single submit-demand / submit-prefetch / park flow.
func TestReplayGolden(t *testing.T) {
	execs := syntheticExecs()
	sync := make([]QueryExec, len(execs))
	for i := range execs {
		sync[i] = *stripPrefetch(&execs[i])
	}
	var b strings.Builder
	for _, tr := range []Traits{Milvus(), Qdrant(), Weaviate(), LanceDB()} {
		for _, clients := range []int{1, 8, 64} {
			for _, mode := range []struct {
				name     string
				execs    []QueryExec
				coalesce bool
			}{{"per-request", sync, false}, {"coalesced", sync, true}, {"coalesced+prefetch", execs, true}} {
				writers := 0
				if !mode.coalesce {
					writers = clients / 8
				}
				fmt.Fprintf(&b, "%s clients=%d %s: %s\n", tr.Name, clients, mode.name,
					replayLine(t, tr, mode.execs, clients, writers, mode.coalesce, false))
			}
		}
	}
	got := b.String()
	golden := filepath.Join("testdata", "replay.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with go test -run TestReplayGolden -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("replay drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
