package index

import "slices"

// Neighbor is a candidate vector with its distance to the query.
type Neighbor struct {
	ID   int32
	Dist float32
}

// neighborLess orders neighbours by distance, breaking ties by id so search
// results are deterministic.
func neighborLess(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// SortNeighbors orders ns ascending by (Dist, ID): the order the heaps drain
// in, and the order HNSW's neighbour selection and Vamana's RobustPrune
// consume their candidates in. Over distinct ids the order is strict, so the
// result does not depend on how ns was arranged.
func SortNeighbors(ns []Neighbor) {
	slices.SortFunc(ns, func(a, b Neighbor) int {
		switch {
		case neighborLess(a, b):
			return -1
		case neighborLess(b, a):
			return 1
		}
		return 0
	})
}

// MinHeap is a binary min-heap of neighbours (closest on top), used as the
// expansion frontier in graph searches.
type MinHeap struct{ a []Neighbor }

// Len returns the heap size.
func (h *MinHeap) Len() int { return len(h.a) }

// Push inserts n.
func (h *MinHeap) Push(n Neighbor) {
	h.a = append(h.a, n)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !neighborLess(h.a[i], h.a[p]) {
			break
		}
		h.a[i], h.a[p] = h.a[p], h.a[i]
		i = p
	}
}

// Pop removes and returns the closest neighbour. It panics on an empty heap.
func (h *MinHeap) Pop() Neighbor {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && neighborLess(h.a[l], h.a[small]) {
			small = l
		}
		if r < last && neighborLess(h.a[r], h.a[small]) {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}

// Peek returns the closest neighbour without removing it.
func (h *MinHeap) Peek() Neighbor { return h.a[0] }

// Reset empties the heap, keeping its storage.
func (h *MinHeap) Reset() { h.a = h.a[:0] }

// MaxHeap is a binary max-heap of neighbours (farthest on top), used as the
// bounded result set: when full, the farthest candidate is evicted first.
type MaxHeap struct{ a []Neighbor }

// Len returns the heap size.
func (h *MaxHeap) Len() int { return len(h.a) }

// Push inserts n.
func (h *MaxHeap) Push(n Neighbor) {
	h.a = append(h.a, n)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !neighborLess(h.a[p], h.a[i]) {
			break
		}
		h.a[i], h.a[p] = h.a[p], h.a[i]
		i = p
	}
}

// Pop removes and returns the farthest neighbour. It panics on an empty
// heap.
func (h *MaxHeap) Pop() Neighbor {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < last && neighborLess(h.a[big], h.a[l]) {
			big = l
		}
		if r < last && neighborLess(h.a[big], h.a[r]) {
			big = r
		}
		if big == i {
			break
		}
		h.a[i], h.a[big] = h.a[big], h.a[i]
		i = big
	}
	return top
}

// Peek returns the farthest neighbour without removing it.
func (h *MaxHeap) Peek() Neighbor { return h.a[0] }

// Reset empties the heap, keeping its storage.
func (h *MaxHeap) Reset() { h.a = h.a[:0] }

// PushBounded inserts n keeping at most k elements: when full, n replaces
// the farthest element only if closer. It reports whether n was kept.
func (h *MaxHeap) PushBounded(n Neighbor, k int) bool {
	if len(h.a) < k {
		h.Push(n)
		return true
	}
	if neighborLess(n, h.a[0]) {
		h.Pop()
		h.Push(n)
		return true
	}
	return false
}

// SortedAscending drains the heap and returns neighbours from closest to
// farthest. The heap is empty afterwards.
func (h *MaxHeap) SortedAscending() []Neighbor {
	out := make([]Neighbor, len(h.a))
	for i := len(h.a) - 1; i >= 0; i-- {
		out[i] = h.Pop()
	}
	return out
}

// DrainAscending appends the heap's neighbours, closest first, to dst and
// returns the extended slice. The heap is empty afterwards. With a dst of
// sufficient capacity this is the allocation-free form of SortedAscending.
func (h *MaxHeap) DrainAscending(dst []Neighbor) []Neighbor {
	n := len(h.a)
	base := len(dst)
	for i := 0; i < n; i++ {
		dst = append(dst, Neighbor{})
	}
	for i := n - 1; i >= 0; i-- {
		dst[base+i] = h.Pop()
	}
	return dst
}

// ResultFromNeighbors converts an ascending neighbour list into a Result,
// truncated to k.
func ResultFromNeighbors(ns []Neighbor, k int, stats Stats) Result {
	var r Result
	ResultInto(ns, k, stats, &r)
	return r
}

// ResultInto writes an ascending neighbour list, truncated to k, into dst,
// reusing dst's id/distance buffers (the zero-allocation form of
// ResultFromNeighbors).
func ResultInto(ns []Neighbor, k int, stats Stats, dst *Result) {
	if k > len(ns) {
		k = len(ns)
	}
	if dst.IDs == nil {
		// non-nil even at k==0, like ResultFromNeighbors
		dst.IDs = make([]int32, 0, k) //annlint:allow hotalloc -- first-call growth of a caller-owned buffer, reused on every later call
	}
	if dst.Dists == nil {
		dst.Dists = make([]float32, 0, k) //annlint:allow hotalloc -- first-call growth of a caller-owned buffer, reused on every later call
	}
	dst.IDs = dst.IDs[:0]
	dst.Dists = dst.Dists[:0]
	for i := 0; i < k; i++ {
		dst.IDs = append(dst.IDs, ns[i].ID)
		dst.Dists = append(dst.Dists, ns[i].Dist)
	}
	dst.Stats = stats
}
