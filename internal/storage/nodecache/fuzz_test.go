package nodecache

import (
	"fmt"
	"testing"
)

// FuzzLRUVsModel feeds arbitrary operation streams — touch, warm, drop —
// through an LRU cache and the reference model in lockstep. The byte stream
// encodes one operation per byte pair: the first byte selects the operation,
// the second the node. Plain `go test` runs the seed corpus below on every
// CI run; `go test -fuzz=FuzzLRUVsModel` explores further.
//
// The capacity is derived from the input so small corpora still cover the
// eviction boundary, capacity 1, and drop-heavy schedules.
func FuzzLRUVsModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 2, 0, 1, 0, 3})       // classic evict-order probe
	f.Add([]byte{0, 1, 2, 0, 0, 2, 0, 1})       // touch, drop, re-touch
	f.Add([]byte{1, 5, 1, 6, 0, 5, 0, 7, 0, 8}) // warm then touch past capacity
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // same node forever
	f.Add([]byte{0, 9, 2, 0, 2, 0, 0, 9, 1, 9}) // repeated drops
	f.Fuzz(func(t *testing.T, ops []byte) {
		capacity := 1 + len(ops)%7
		c := New(Config{Capacity: capacity, Policy: PolicyLRU})
		m := newModel(capacity, false)
		universe := make([]int32, 2*capacity+8)
		for i := range universe {
			universe[i] = int32(i)
		}
		for i := 0; i+1 < len(ops); i += 2 {
			node := universe[int(ops[i+1])%len(universe)]
			switch ops[i] % 3 {
			case 0: // touch (insert on miss, refresh on hit, evict at cap)
				if got, want := c.Touch(node, 1), m.touch(node); got != want {
					t.Fatalf("op %d: Touch(%d) = %v, model %v", i, node, got, want)
				}
			case 1: // warm one node (no counter traffic)
				c.Warm([]int32{node})
				m.warm([]int32{node})
			case 2: // drop
				c.Drop()
				m.drop()
			}
			checkAgainstModel(t, i, c, m, universe)
		}
	})
}

// FuzzStaticVsModel is the static-policy variant: the first bytes build the
// warm set, the rest are lookups that must never change residency.
func FuzzStaticVsModel(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{1, 2, 3, 4, 5})
	f.Add([]byte{}, []byte{0, 0, 1})
	f.Add([]byte{7, 7, 7}, []byte{7, 8})
	f.Fuzz(func(t *testing.T, warmBytes, touches []byte) {
		capacity := 1 + (len(warmBytes)+len(touches))%5
		c := New(Config{Capacity: capacity, Policy: PolicyStatic})
		m := newModel(capacity, true)
		universe := make([]int32, 16)
		for i := range universe {
			universe[i] = int32(i)
		}
		warm := make([]int32, len(warmBytes))
		for i, b := range warmBytes {
			warm[i] = universe[int(b)%len(universe)]
		}
		c.Warm(warm)
		m.warm(warm)
		resident := c.Len()
		for i, b := range touches {
			node := universe[int(b)%len(universe)]
			if got, want := c.Touch(node, 1), m.touch(node); got != want {
				t.Fatalf("touch %d: Touch(%d) = %v, model %v", i, node, got, want)
			}
			if c.Len() != resident {
				t.Fatalf("touch %d: static resident set changed: %d -> %d", i, resident, c.Len())
			}
			checkAgainstModel(t, i, c, m, universe)
		}
	})
}

// FuzzDeterministicReplay replays any operation stream twice through two
// fresh caches and requires byte-identical snapshots — the fuzz-shaped form
// of the determinism guarantee.
func FuzzDeterministicReplay(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 0, 0, 1})
	f.Add([]byte{1, 1, 0, 1, 0, 2, 0, 3, 0, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		run := func() string {
			capacity := 1 + len(ops)%6
			c := New(Config{Capacity: capacity, Policy: PolicyLRU})
			for i := 0; i+1 < len(ops); i += 2 {
				node := int32(ops[i+1] % 23)
				switch ops[i] % 3 {
				case 0:
					c.Touch(node, 1+int(ops[i+1]%3))
				case 1:
					c.Warm([]int32{node})
				case 2:
					c.Drop()
				}
			}
			return fmt.Sprintf("%+v", c.Snapshot())
		}
		if a, b := run(), run(); a != b {
			t.Errorf("replay diverged:\n%s\n%s", a, b)
		}
	})
}
