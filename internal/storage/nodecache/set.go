package nodecache

import "sync"

// Set is one index's registry of node caches: one Cache per (policy,
// capacity, key space) its searches have asked for, created on first use.
// Static caches are warmed at creation; LRU caches start cold and evolve
// across the queries recorded against them. A key space separates caches
// whose node ids mean different things (DiskANN's node rows vs its page
// groups); indexes with one id space pass "".
type Set struct {
	pageSize int
	warm     func(space string, c *Cache)

	mu     sync.Mutex
	caches map[setKey]*Cache
}

// setKey is comparable, so the per-query lookup allocates nothing (a
// formatted string key would allocate on every search, cache hit or not).
type setKey struct {
	policy Policy
	nodes  int
	space  string
}

// NewSet creates an empty registry. warm installs the resident set of a new
// static cache over the given key space; it runs once per cache, under the
// set's lock.
func NewSet(pageSize int, warm func(space string, c *Cache)) *Set {
	return &Set{pageSize: pageSize, warm: warm, caches: map[setKey]*Cache{}}
}

// For returns the cache the arguments select, creating (and, for the static
// policy, warming) it on first use, or nil when nodes ≤ 0 disables caching.
// An unknown policy name panics: the harness layers validate user input
// before it reaches a search.
func (s *Set) For(policy string, nodes int, space string) *Cache {
	if nodes <= 0 {
		return nil
	}
	p, err := ParsePolicy(policy)
	if err != nil {
		panic(err.Error())
	}
	key := setKey{policy: p, nodes: nodes, space: space}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.caches[key]; ok {
		return c
	}
	c := New(Config{Capacity: nodes, Policy: p, PageSize: s.pageSize})
	if p == PolicyStatic {
		s.warm(space, c)
	}
	s.caches[key] = c
	return c
}

// Snapshot reports the counters of the cache the arguments select, or
// ok=false when no search has created it yet.
func (s *Set) Snapshot(policy string, nodes int, space string) (Snapshot, bool) {
	p, err := ParsePolicy(policy)
	if err != nil {
		return Snapshot{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.caches[setKey{policy: p, nodes: nodes, space: space}]
	if !ok {
		return Snapshot{}, false
	}
	return c.Snapshot(), true
}
