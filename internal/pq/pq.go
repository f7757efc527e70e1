// Package pq provides a minimal generic binary min-heap over a plain
// slice. It serves Dijkstra's frontier, the depgraph expiry queue and the
// distnet event queue, where container/heap's interface{}-based Push/Pop
// would box every element and allocate on each call.
package pq

// Heap is a binary min-heap ordered by Less. The zero value with a Less
// function set via Init is ready to use; pushing onto an uninitialized
// heap panics.
type Heap[T any] struct {
	s    []T
	less func(a, b T) bool
}

// New returns a heap ordered by less, seeded with the given items.
func New[T any](less func(a, b T) bool, items ...T) *Heap[T] {
	h := &Heap[T]{less: less}
	for _, it := range items {
		h.Push(it)
	}
	return h
}

// Init sets the ordering function and clears the heap, keeping the backing
// array for reuse.
func (h *Heap[T]) Init(less func(a, b T) bool) {
	h.less = less
	h.s = h.s[:0]
}

// Len returns the number of queued items.
func (h *Heap[T]) Len() int { return len(h.s) }

// Peek returns the minimum item without removing it. It panics on an
// empty heap, like indexing an empty slice would.
func (h *Heap[T]) Peek() T { return h.s[0] }

// Push inserts x.
func (h *Heap[T]) Push(x T) {
	h.s = append(h.s, x)
	i := len(h.s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.s[i], h.s[parent]) {
			break
		}
		h.s[i], h.s[parent] = h.s[parent], h.s[i]
		i = parent
	}
}

// Pop removes and returns the minimum item. It panics on an empty heap.
func (h *Heap[T]) Pop() T {
	top := h.s[0]
	n := len(h.s) - 1
	h.s[0] = h.s[n]
	var zero T
	h.s[n] = zero // release references held by the vacated slot
	h.s = h.s[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(h.s[l], h.s[smallest]) {
			smallest = l
		}
		if r < n && h.less(h.s[r], h.s[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.s[i], h.s[smallest] = h.s[smallest], h.s[i]
		i = smallest
	}
	return top
}
