package vdb

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"svdbench/internal/index"
)

// TestTimerReplayMatchesProcess: the engine's Op, woken through timers,
// replays the event sequence of the process replay it replaced — per-query
// latencies, device traffic, queue depth and CPU busy time agree for the four
// engines' traits at 1, 8 and 64 clients under every submission policy, with
// insert/delete clients writing beside the queries.
func TestTimerReplayMatchesProcess(t *testing.T) {
	execs := syntheticExecs()
	sync := make([]QueryExec, len(execs))
	for i := range execs {
		sync[i] = *stripPrefetch(&execs[i])
	}
	for _, tr := range []Traits{Milvus(), Qdrant(), Weaviate(), LanceDB()} {
		for _, clients := range []int{1, 8, 64} {
			for _, mode := range []struct {
				name     string
				execs    []QueryExec
				coalesce bool
			}{{"per-request", sync, false}, {"coalesced", sync, true}, {"coalesced+prefetch", execs, true}} {
				writers := 1 + clients/8
				procs := replayLine(t, tr, mode.execs, clients, writers, mode.coalesce, true)
				timers := replayLine(t, tr, mode.execs, clients, writers, mode.coalesce, false)
				if timers != procs {
					t.Errorf("%s clients=%d %s: timers diverge from processes:\n  processes %s\n  timers    %s",
						tr.Name, clients, mode.name, procs, timers)
				}
				if strings.Contains(procs, " writes=0 ") {
					t.Errorf("%s clients=%d %s: the writers wrote nothing: %s", tr.Name, clients, mode.name, procs)
				}
			}
		}
	}
}

// fuzzBytes hands out fuzz bytes one at a time, zeros once they run out.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzExecs decodes a small recorded query set: one to six queries of one to
// three segments, each of up to four steps with CPU, a beam or a contiguous
// run, node-cache hits and up to three prefetch runs. Pages come from a pool
// of sixteen, so first pages repeat within and across steps.
func fuzzExecs(b *fuzzBytes) []QueryExec {
	pages := func(n int) []int64 {
		if n == 0 {
			return nil
		}
		ps := make([]int64, n)
		for i := range ps {
			ps[i] = int64(b.next() % 16)
		}
		return ps
	}
	execs := make([]QueryExec, 1+b.next()%6)
	for qi := range execs {
		segs := make([][]index.Step, 1+b.next()%3)
		for si := range segs {
			steps := make([]index.Step, b.next()%5)
			for i := range steps {
				shape := b.next()
				s := index.Step{
					Work:       burn(time.Duration(b.next()%64) * time.Microsecond),
					Pages:      pages(shape % 5),
					Contiguous: shape&8 != 0,
					CachePages: int32(shape>>4) % 3,
				}
				for pf := shape >> 6; pf > 0; pf-- {
					run := b.next()
					s.Prefetch = append(s.Prefetch, index.PrefetchRun{Pages: pages(run % 4), Contiguous: run&4 != 0})
				}
				steps[i] = s
			}
			segs[si] = steps
		}
		execs[qi].Segments = segs
	}
	return execs
}

// FuzzTimerReplay: whatever the recorded queries, trait profile, client
// count, submission policy and writers, the timer replay and the process
// reference produce the same run, and both leave the engine drained. The
// first three bytes pick the profile, the client count and the flags (bit 0
// coalesces reads, bit 1 adds writers, bit 2 is unused, bits 3–4 cap the
// segment workers and the memory budget so that the queue and the
// out-of-memory path are taken); the rest are the queries.
func FuzzTimerReplay(f *testing.F) {
	f.Add([]byte{0, 7, 0, 3, 2, 4, 1, 0x4a, 20, 3, 5, 0x85, 9, 7, 1, 2, 3})
	f.Add([]byte{1, 0, 1, 1, 0, 2, 0x0c, 30, 1, 2})
	f.Add([]byte{2, 11, 3, 5, 2, 3, 0xc3, 10, 1, 2, 3, 6, 4, 5, 1, 1, 0x42, 0, 7, 7})
	f.Add([]byte{3, 5, 0x1e, 2, 1, 1, 0x81, 40, 9, 5, 3})
	f.Add([]byte{0, 15, 0x0e, 4, 2, 4, 0x44, 5, 1, 2, 3, 4, 7, 1, 2, 0x89, 12, 3, 6, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		tr := []Traits{Milvus(), Qdrant(), Weaviate(), LanceDB()}[b.next()%4]
		clients := 1 + b.next()%16
		flags := b.next()
		writers := 0
		if flags&2 != 0 {
			writers = 1 + clients/8
		}
		if flags&8 != 0 && tr.IntraQueryParallel {
			tr.MaxReadConcurrent = 2
		}
		if flags&16 != 0 {
			tr.MemPerQuery, tr.MemBudget = 1, 3
		}
		execs := fuzzExecs(&b)
		procs := replayLine(t, tr, execs, clients, writers, flags&1 != 0, true)
		timers := replayLine(t, tr, execs, clients, writers, flags&1 != 0, false)
		if timers != procs {
			t.Fatalf("timers diverge from processes:\n  processes %s\n  timers    %s\n%s", procs, timers, fmt.Sprint(execs))
		}
	})
}
