package index

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestCostModelArithmetic(t *testing.T) {
	c := DefaultCostModel()
	one := c.Price(&Step{Work: Work{Dist: 1, Dim: 768}})
	want := time.Duration((c.DistFixedPs + 768*c.DistPerDimPs) / 1000)
	if one != want {
		t.Errorf("one 768-d distance = %v, want %v", one, want)
	}
	if one < 200*time.Nanosecond || one > 300*time.Nanosecond {
		t.Errorf("768-d distance costs %v, expected a few hundred ns", one)
	}
	if got := c.Price(&Step{Work: Work{Dist: 1000, Dim: 768}}); got != 1000*one {
		t.Errorf("price not linear in count: %v vs 1000×%v", got, one)
	}
	// Each kind truncates on its own: 3 ADCs at m=96 are 319.2 ns, 2 heap
	// ops 50 ns and 2 cache hits 240 ns.
	s := Step{Work: Work{ADC: 3, Heap: 2, M: 96}, CachePages: 2}
	if got := c.Price(&s); got != 319+50+240 {
		t.Errorf("price of %+v = %v, want 609ns", s, got)
	}
}

func TestProfileRecording(t *testing.T) {
	var p Profile
	p.AddWork(Work{Dist: 3, Dim: 8})
	p.AddWork(Work{Heap: 4})
	p.AddCacheHit(2)
	p.AddIO([]int64{1, 2})
	p.AddWork(Work{ADC: 5, M: 4})
	p.Flush()
	want := []Step{
		{Work: Work{Dist: 3, Heap: 4, Dim: 8}, Pages: []int64{1, 2}, CachePages: 2},
		{Work: Work{ADC: 5, M: 4}},
	}
	if !reflect.DeepEqual(p.Steps, want) {
		t.Errorf("steps = %+v, want %+v", p.Steps, want)
	}
}

func TestProfileNilSafe(t *testing.T) {
	var p *Profile
	p.AddWork(Work{Heap: 1}) // must not panic
	p.AddIO([]int64{1})
	p.Flush()
}

func TestProfileIOCopiesPages(t *testing.T) {
	var p Profile
	pages := []int64{1, 2, 3}
	p.AddIO(pages)
	pages[0] = 99
	if p.Steps[0].Pages[0] != 1 {
		t.Error("AddIO must copy the page slice")
	}
}

func TestProfileFlushEmptyNoStep(t *testing.T) {
	var p Profile
	p.Flush()
	if len(p.Steps) != 0 {
		t.Error("flush of empty profile added a step")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{DistComps: 1, PQComps: 2, Hops: 3, PagesRead: 4}
	a.Add(Stats{DistComps: 10, PQComps: 20, Hops: 30, PagesRead: 40})
	if a != (Stats{DistComps: 11, PQComps: 22, Hops: 33, PagesRead: 44}) {
		t.Errorf("stats add = %+v", a)
	}
}

func TestMinHeapOrdering(t *testing.T) {
	var h MinHeap
	for _, d := range []float32{5, 1, 3, 2, 4} {
		h.Push(Neighbor{ID: int32(d), Dist: d})
	}
	for want := float32(1); want <= 5; want++ {
		if got := h.Pop().Dist; got != want {
			t.Fatalf("pop = %v, want %v", got, want)
		}
	}
	if h.Len() != 0 {
		t.Error("heap not empty")
	}
}

func TestMaxHeapOrdering(t *testing.T) {
	var h MaxHeap
	for _, d := range []float32{5, 1, 3, 2, 4} {
		h.Push(Neighbor{ID: int32(d), Dist: d})
	}
	for want := float32(5); want >= 1; want-- {
		if got := h.Pop().Dist; got != want {
			t.Fatalf("pop = %v, want %v", got, want)
		}
	}
}

func TestHeapTieBreakByID(t *testing.T) {
	var h MinHeap
	h.Push(Neighbor{ID: 7, Dist: 1})
	h.Push(Neighbor{ID: 3, Dist: 1})
	if h.Pop().ID != 3 {
		t.Error("min-heap tie must pop lower id first")
	}
	var m MaxHeap
	m.Push(Neighbor{ID: 7, Dist: 1})
	m.Push(Neighbor{ID: 3, Dist: 1})
	if m.Pop().ID != 7 {
		t.Error("max-heap tie must pop higher id first")
	}
}

func TestPushBounded(t *testing.T) {
	var h MaxHeap
	for d := float32(1); d <= 5; d++ {
		h.PushBounded(Neighbor{ID: int32(d), Dist: d}, 3)
	}
	if h.Len() != 3 {
		t.Fatalf("len = %d, want 3", h.Len())
	}
	if h.Peek().Dist != 3 {
		t.Errorf("worst kept = %v, want 3", h.Peek().Dist)
	}
	if h.PushBounded(Neighbor{ID: 99, Dist: 100}, 3) {
		t.Error("worse candidate accepted into full heap")
	}
	if !h.PushBounded(Neighbor{ID: 0, Dist: 0.5}, 3) {
		t.Error("better candidate rejected")
	}
}

func TestSortedAscending(t *testing.T) {
	var h MaxHeap
	for _, d := range []float32{3, 1, 2} {
		h.Push(Neighbor{ID: int32(d), Dist: d})
	}
	out := h.SortedAscending()
	if len(out) != 3 || out[0].Dist != 1 || out[2].Dist != 3 {
		t.Errorf("sorted = %v", out)
	}
}

// Property: MinHeap pops in globally sorted order for random inputs.
func TestPropertyMinHeapSortsRandom(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(100)
		var h MinHeap
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = r.Float32()
			h.Push(Neighbor{ID: int32(i), Dist: vals[i]})
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, want := range vals {
			if h.Pop().Dist != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: PushBounded keeps exactly the k smallest distances.
func TestPropertyPushBoundedKeepsKSmallest(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(100)
		k := 1 + r.Intn(5)
		var h MaxHeap
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = r.Float32()
			h.PushBounded(Neighbor{ID: int32(i), Dist: vals[i]}, k)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		got := h.SortedAscending()
		if len(got) != k {
			return false
		}
		for i := 0; i < k; i++ {
			if got[i].Dist != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestResultFromNeighbors(t *testing.T) {
	ns := []Neighbor{{1, 0.1}, {2, 0.2}, {3, 0.3}}
	r := ResultFromNeighbors(ns, 2, Stats{DistComps: 9})
	if len(r.IDs) != 2 || r.IDs[0] != 1 || r.Dists[1] != 0.2 || r.Stats.DistComps != 9 {
		t.Errorf("result = %+v", r)
	}
	r = ResultFromNeighbors(ns, 10, Stats{})
	if len(r.IDs) != 3 {
		t.Errorf("overlong k not clamped: %d", len(r.IDs))
	}
}

func TestHeapReset(t *testing.T) {
	var h MinHeap
	h.Push(Neighbor{1, 1})
	h.Reset()
	if h.Len() != 0 {
		t.Error("reset failed")
	}
	var m MaxHeap
	m.Push(Neighbor{1, 1})
	m.Reset()
	if m.Len() != 0 {
		t.Error("reset failed")
	}
}
