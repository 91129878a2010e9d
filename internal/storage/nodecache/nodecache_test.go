package nodecache

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
		ok   bool
	}{
		{"", PolicyLRU, true},
		{"lru", PolicyLRU, true},
		{"static", PolicyStatic, true},
		{"arc", "", false},
		{"LRU", "", false},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParsePolicy(%q) = (%v, %v), want (%v, ok=%v)", c.in, got, err, c.want, c.ok)
		}
	}
}

func TestNewValidation(t *testing.T) {
	for _, cfg := range []Config{{Capacity: 0}, {Capacity: -1}, {Capacity: 4, Policy: "bogus"}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestStaticWarmHitsAndNeverAdmits(t *testing.T) {
	c := New(Config{Capacity: 2, Policy: PolicyStatic})
	c.Warm([]int32{10, 20, 30}) // 30 is over capacity
	if c.Len() != 2 || !c.Contains(10) || !c.Contains(20) || c.Contains(30) {
		t.Fatalf("warm set wrong: len=%d", c.Len())
	}
	if !c.Touch(10, 2) || !c.Touch(20, 2) {
		t.Error("warm nodes must hit")
	}
	if c.Touch(99, 2) {
		t.Error("cold node hit a static cache")
	}
	if c.Contains(99) {
		t.Error("static cache admitted a missed node")
	}
	s := c.Snapshot()
	if s.Hits != 2 || s.Misses != 1 || s.Evictions != 0 {
		t.Errorf("snapshot = %v", s)
	}
	if want := int64(2 * 2 * 4096); s.BytesSaved != want {
		t.Errorf("bytes saved = %d, want %d", s.BytesSaved, want)
	}
}

func TestLRUAdmitAndEvict(t *testing.T) {
	c := New(Config{Capacity: 2, Policy: PolicyLRU})
	c.Touch(1, 1) // miss, admit
	c.Touch(2, 1) // miss, admit
	c.Touch(1, 1) // hit: 1 is MRU
	c.Touch(3, 1) // miss, admit, evicts 2
	if !c.Contains(1) || c.Contains(2) || !c.Contains(3) {
		t.Errorf("resident set wrong: 1=%v 2=%v 3=%v", c.Contains(1), c.Contains(2), c.Contains(3))
	}
	s := c.Snapshot()
	if s.Hits != 1 || s.Misses != 3 || s.Evictions != 1 || s.Resident != 2 {
		t.Errorf("snapshot = %v", s)
	}
	if s.Touches() != 4 {
		t.Errorf("touches = %d, want 4", s.Touches())
	}
}

func TestDropKeepsCounters(t *testing.T) {
	c := New(Config{Capacity: 4, Policy: PolicyLRU})
	c.Touch(1, 1)
	c.Touch(1, 1)
	c.Drop()
	if c.Len() != 0 {
		t.Errorf("len after drop = %d", c.Len())
	}
	if c.Touch(1, 1) {
		t.Error("hit after drop")
	}
	s := c.Snapshot()
	if s.Hits != 1 || s.Misses != 2 {
		t.Errorf("counters not kept across drop: %v", s)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := Snapshot{Policy: PolicyLRU, Capacity: 2, Resident: 1, Hits: 3, Misses: 4, Evictions: 1, BytesSaved: 8192}
	b := Snapshot{Policy: PolicyLRU, Capacity: 2, Resident: 2, Hits: 1, Misses: 1, BytesSaved: 4096}
	m := a.Merge(b)
	if m.Capacity != 4 || m.Resident != 3 || m.Hits != 4 || m.Misses != 5 || m.Evictions != 1 || m.BytesSaved != 12288 {
		t.Errorf("merge = %v", m)
	}
}

// lruModel is the executable specification the property and fuzz tests
// check the real cache against: a slice ordered most-recently-used first.
type lruModel struct {
	cap    int
	static bool
	order  []int32 // MRU first
	hits   int64
	misses int64
	evict  int64
}

func newModel(capacity int, static bool) *lruModel {
	return &lruModel{cap: capacity, static: static}
}

func (m *lruModel) find(node int32) int {
	for i, n := range m.order {
		if n == node {
			return i
		}
	}
	return -1
}

func (m *lruModel) touch(node int32) bool {
	if i := m.find(node); i >= 0 {
		m.hits++
		if !m.static {
			m.order = append(m.order[:i], m.order[i+1:]...)
			m.order = append([]int32{node}, m.order...)
		}
		return true
	}
	m.misses++
	if !m.static {
		m.order = append([]int32{node}, m.order...)
		for len(m.order) > m.cap {
			m.order = m.order[:len(m.order)-1]
			m.evict++
		}
	}
	return false
}

func (m *lruModel) warm(nodes []int32) {
	for _, n := range nodes {
		if m.find(n) >= 0 || len(m.order) >= m.cap {
			continue
		}
		m.order = append(m.order, n)
	}
}

func (m *lruModel) drop() { m.order = nil }

// checkAgainstModel asserts every invariant the issue names: the resident
// set never exceeds capacity, hits+misses equals touches, residency and
// eviction order match the reference model, counters agree.
func checkAgainstModel(t *testing.T, step int, c *Cache, m *lruModel, universe []int32) {
	t.Helper()
	s := c.Snapshot()
	if s.Resident > s.Capacity {
		t.Fatalf("step %d: resident %d exceeds capacity %d", step, s.Resident, s.Capacity)
	}
	if s.Touches() != s.Hits+s.Misses {
		t.Fatalf("step %d: touches %d != hits %d + misses %d", step, s.Touches(), s.Hits, s.Misses)
	}
	if s.Hits != m.hits || s.Misses != m.misses || s.Evictions != m.evict {
		t.Fatalf("step %d: counters (h=%d m=%d e=%d) diverge from model (h=%d m=%d e=%d)",
			step, s.Hits, s.Misses, s.Evictions, m.hits, m.misses, m.evict)
	}
	if s.Resident != len(m.order) {
		t.Fatalf("step %d: resident %d, model %d", step, s.Resident, len(m.order))
	}
	for _, n := range universe {
		if c.Contains(n) != (m.find(n) >= 0) {
			t.Fatalf("step %d: node %d residency %v, model %v", step, n, c.Contains(n), m.find(n) >= 0)
		}
	}
}

// TestPropertyLRUMatchesModel drives seeded random access sequences through
// LRU caches of several capacities and checks cache state against the
// reference model after every operation. Because residency is compared after
// each touch, any divergence in *eviction order* surfaces at the first
// operation where the wrong node was evicted.
func TestPropertyLRUMatchesModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 32} {
		for seed := int64(0); seed < 4; seed++ {
			r := rand.New(rand.NewSource(seed*1000 + int64(capacity)))
			c := New(Config{Capacity: capacity, Policy: PolicyLRU, Seed: seed})
			m := newModel(capacity, false)
			universe := make([]int32, 3*capacity+4)
			for i := range universe {
				universe[i] = int32(i)
			}
			for step := 0; step < 500; step++ {
				switch op := r.Intn(20); {
				case op == 0:
					c.Drop()
					m.drop()
				default:
					n := universe[r.Intn(len(universe))]
					got := c.Touch(n, 1)
					want := m.touch(n)
					if got != want {
						t.Fatalf("cap=%d seed=%d step %d: Touch(%d) = %v, model %v", capacity, seed, step, n, got, want)
					}
				}
				checkAgainstModel(t, step, c, m, universe)
			}
		}
	}
}

// TestPropertyStaticMatchesModel is the same property for the static policy:
// the warm set is the complete resident set forever.
func TestPropertyStaticMatchesModel(t *testing.T) {
	for _, capacity := range []int{1, 5, 16} {
		for seed := int64(0); seed < 4; seed++ {
			r := rand.New(rand.NewSource(seed*77 + int64(capacity)))
			c := New(Config{Capacity: capacity, Policy: PolicyStatic, Seed: seed})
			m := newModel(capacity, true)
			universe := make([]int32, 2*capacity+6)
			for i := range universe {
				universe[i] = int32(i)
			}
			warm := universe[:capacity+2] // over-long: truncated at capacity
			c.Warm(warm)
			m.warm(warm)
			for step := 0; step < 300; step++ {
				n := universe[r.Intn(len(universe))]
				if got, want := c.Touch(n, 1), m.touch(n); got != want {
					t.Fatalf("cap=%d seed=%d step %d: Touch(%d) = %v, model %v", capacity, seed, step, n, got, want)
				}
				checkAgainstModel(t, step, c, m, universe)
			}
		}
	}
}

// TestDeterministicSnapshots runs the same seeded access sequence twice and
// requires byte-identical rendered counter snapshots.
func TestDeterministicSnapshots(t *testing.T) {
	run := func() string {
		r := rand.New(rand.NewSource(42))
		c := New(Config{Capacity: 8, Policy: PolicyLRU, Seed: 42})
		for i := 0; i < 2000; i++ {
			c.Touch(int32(r.Intn(40)), 1+r.Intn(2))
			if r.Intn(97) == 0 {
				c.Drop()
			}
		}
		return fmt.Sprintf("%+v", c.Snapshot())
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("identical runs produced different snapshots:\n%s\n%s", a, b)
	}
}
