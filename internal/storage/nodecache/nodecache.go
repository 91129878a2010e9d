// Package nodecache implements an index-aware node cache for storage-based
// ANN search: the layer between beam search (or posting probes) and the
// simulated device that absorbs the small random reads the paper identifies
// as the latency driver of storage-based search (Key Finding 2).
//
// Unlike an OS page cache, which would see opaque page numbers at replay
// time, the node cache works in *index units* — a DiskANN graph node or page
// group, or a SPANN posting list — and is consulted by the index itself
// during search, before any page request is recorded. A hit removes
// the node's pages from the recorded I/O and records them as cache pages,
// which replay prices at a small in-memory cost per page; a miss records the
// device pages as before.
//
// Two replacement policies are provided, mirroring the deployed systems:
//
//   - PolicyStatic: a fixed resident set warmed ahead of time with the N
//     nodes closest to the traversal entry point (real DiskANN's
//     num_nodes_to_cache BFS warming). The set never changes at search
//     time, so concurrent recording stays deterministic.
//   - PolicyLRU: a dynamic least-recently-used cache admitting every missed
//     node. State evolves across queries, so recording against it must be
//     sequential (see index.SearchOptions.NodeCacheMutable); given one
//     access order the cache is fully deterministic.
//
// The cache tracks hits, misses, evictions, and bytes saved; Snapshot
// returns a copy for reporting. All state transitions are pure functions of
// the access sequence — there is no randomness and no wall-clock input —
// which is what makes byte-identical replay possible.
package nodecache

import (
	"container/list"
	"fmt"
	"sync"
)

// Policy is a node replacement policy.
type Policy string

const (
	// PolicyStatic is a fixed, pre-warmed resident set (DiskANN's
	// num_nodes_to_cache): lookups never admit or evict.
	PolicyStatic Policy = "static"
	// PolicyLRU is least-recently-used with admission on every miss.
	PolicyLRU Policy = "lru"
)

// ParsePolicy maps a policy name to a Policy. The empty string selects
// PolicyLRU, the dynamic default.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case "":
		return PolicyLRU, nil
	case PolicyStatic, PolicyLRU:
		return Policy(s), nil
	default:
		//annlint:allow hotalloc -- error built only on the invalid-policy path; the success path is allocation-free
		return "", fmt.Errorf("nodecache: unknown policy %q (have %q, %q)", s, PolicyStatic, PolicyLRU)
	}
}

// Config parameterises a cache.
type Config struct {
	// Capacity is the maximum resident node count. It must be positive:
	// disabling the cache is the caller's job (a nil *Cache is a valid
	// "no cache" value for the index layer).
	Capacity int
	// Policy selects replacement ("" means PolicyLRU).
	Policy Policy
	// PageSize converts saved pages to saved bytes (default 4096).
	PageSize int
}

// Cache is a node cache under one policy. It is safe for concurrent use;
// for PolicyLRU callers must serialise whole access sequences themselves to
// keep recorded state deterministic (the mutex protects invariants, not
// ordering).
type Cache struct {
	mu  sync.Mutex
	cfg Config

	lru   *list.List // front = most recently used; values are node ids
	index map[int32]*list.Element

	hits       int64
	misses     int64
	evictions  int64
	bytesSaved int64
}

// New creates a cache. It panics on a non-positive capacity or an unknown
// policy — both are programmer errors at the index layer, which validates
// user input before constructing a cache.
func New(cfg Config) *Cache {
	if cfg.Capacity <= 0 {
		panic(fmt.Sprintf("nodecache: capacity must be positive, got %d", cfg.Capacity))
	}
	p, err := ParsePolicy(string(cfg.Policy))
	if err != nil {
		panic(err.Error())
	}
	cfg.Policy = p
	if cfg.PageSize <= 0 {
		cfg.PageSize = 4096
	}
	//annlint:allow hotalloc -- one-time cache construction, amortized over every query the cache serves
	return &Cache{
		cfg:   cfg,
		lru:   list.New(),
		index: make(map[int32]*list.Element), //annlint:allow hotalloc -- one-time cache construction, amortized over every query the cache serves
	}
}

// Policy returns the replacement policy.
func (c *Cache) Policy() Policy { return c.cfg.Policy }

// Capacity returns the maximum resident node count.
func (c *Cache) Capacity() int { return c.cfg.Capacity }

// Touch is the search-time access path: it reports whether node is resident,
// counting a hit or a miss. On a hit the node's recency is refreshed (LRU)
// and its saved bytes accounted. On a miss under PolicyLRU the node is
// admitted (the search fetches it anyway, so caching it is free), evicting
// the least recently used node if at capacity; PolicyStatic never admits.
// pages is the node's page footprint, used for bytes-saved accounting.
func (c *Cache) Touch(node int32, pages int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[node]; ok {
		c.hits++
		c.bytesSaved += int64(pages) * int64(c.cfg.PageSize)
		if c.cfg.Policy == PolicyLRU {
			c.lru.MoveToFront(el)
		}
		return true
	}
	c.misses++
	if c.cfg.Policy == PolicyLRU {
		c.admit(node)
	}
	return false
}

// Contains reports residency without touching counters or recency.
func (c *Cache) Contains(node int32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.index[node]
	return ok
}

// admit inserts a node, evicting from the LRU tail when over capacity.
// Callers hold c.mu.
func (c *Cache) admit(node int32) {
	if el, ok := c.index[node]; ok {
		c.lru.MoveToFront(el)
		return
	}
	c.index[node] = c.lru.PushFront(node) //annlint:allow hotalloc -- LRU admission allocates its list entry once per miss; the modeled device read dominates that cost
	for c.lru.Len() > c.cfg.Capacity {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.index, oldest.Value.(int32))
		c.evictions++
	}
}

// Warm marks nodes resident without touching hit/miss counters, in order:
// the first node given is the last to be evicted under LRU. Nodes beyond
// capacity are ignored, so a static cache holds exactly its first Capacity
// warm nodes.
func (c *Cache) Warm(nodes []int32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range nodes {
		if _, ok := c.index[n]; ok {
			continue
		}
		if c.lru.Len() >= c.cfg.Capacity {
			continue
		}
		c.index[n] = c.lru.PushBack(n) //annlint:allow hotalloc -- warm set is installed once at cache construction, before any query runs
	}
}

// Drop empties the resident set (the drop_caches equivalent). Counters are
// kept: Drop models losing state, not history.
func (c *Cache) Drop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Init()
	c.index = make(map[int32]*list.Element)
}

// Len returns the resident node count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Snapshot is a copy of the cache's counters and occupancy at one instant.
// Two caches fed the same access sequence produce identical snapshots; the
// determinism tests compare their rendered bytes.
type Snapshot struct {
	Policy     Policy
	Capacity   int
	Resident   int
	Hits       int64
	Misses     int64
	Evictions  int64
	BytesSaved int64
}

// Touches returns the total accesses (hits + misses).
func (s Snapshot) Touches() int64 { return s.Hits + s.Misses }

// HitRate returns hits over touches (0 when untouched).
func (s Snapshot) HitRate() float64 {
	if t := s.Touches(); t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

func (s Snapshot) String() string {
	return fmt.Sprintf("policy=%s cap=%d resident=%d hits=%d misses=%d evictions=%d saved=%dB",
		s.Policy, s.Capacity, s.Resident, s.Hits, s.Misses, s.Evictions, s.BytesSaved)
}

// Snapshot returns the current counters.
func (c *Cache) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Snapshot{
		Policy:     c.cfg.Policy,
		Capacity:   c.cfg.Capacity,
		Resident:   c.lru.Len(),
		Hits:       c.hits,
		Misses:     c.misses,
		Evictions:  c.evictions,
		BytesSaved: c.bytesSaved,
	}
}

// Merge folds another snapshot into s (for summing per-segment caches).
func (s Snapshot) Merge(other Snapshot) Snapshot {
	s.Capacity += other.Capacity
	s.Resident += other.Resident
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Evictions += other.Evictions
	s.BytesSaved += other.BytesSaved
	if s.Policy == "" {
		s.Policy = other.Policy
	}
	return s
}
