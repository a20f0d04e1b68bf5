// Package heapx is a typed slice binary min-heap shared by the hot paths
// that outgrew container/heap: no interface{} boxing (one allocation per
// push) and no indirect dispatch — elements are Item[V] pairs ordered by a
// concrete int64 priority field, so the comparison compiles to a direct
// integer compare in every instantiation. Callers own the backing slice,
// so it can be reused across searches (`h = h[:0]`).
//
// Equal priorities pop in exactly the order the textbook swap-based
// sift-up/sift-down heap (container/heap's algorithm) pops them, and the
// backing slice holds the same elements in the same slots after every
// call. Routing depends on that: the router's A* and the coarse planner
// break equal f-scores by pop order, so a heap that reordered ties would
// change every routed layout. heapx_test.go keeps the textbook heap as a
// reference and checks both properties differentially.
package heapx

// Item is one heap element: an int64 priority and a payload. Min-heap:
// the smallest Pri pops first; equal priorities pop in the textbook
// binary heap's order (see the package comment).
type Item[V any] struct {
	Pri   int64
	Value V
}

// Push adds it to the heap and returns the updated slice. Parents move
// down into the hole instead of being swapped, and it is written once
// where the textbook sift-up would have stopped.
func Push[V any](h []Item[V], it Item[V]) []Item[V] {
	h = append(h, it)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].Pri <= it.Pri {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = it
	return h
}

// Pop removes and returns the minimum element. It panics on an empty heap
// (same contract as container/heap).
//
// Pop is bottom-up: the hole left at the root walks down the min-child
// path to a leaf (ties go to the left child, as in the textbook
// sift-down), then the former last element sifts up from that leaf while
// its parent's priority is >= its own. The min-child path does not depend
// on the moved element, and priorities along it never decrease, so it
// comes to rest in exactly the slot where the textbook sift-down stops —
// same layout, fewer compares. The child is picked with a flag rather
// than a branch (the compiler emits SETcc): which child is smaller is a
// coin flip on A* frontiers, so a branch mispredicts about every other
// level, and that — not the heap's depth — is what bounds a pop.
func Pop[V any](h []Item[V]) ([]Item[V], Item[V]) {
	top := h[0]
	n := len(h) - 1
	x := h[n]
	h = h[:n]
	if n == 0 {
		return h, top
	}
	i := 0
	for r := 2; r < n; r = 2*i + 2 {
		l := r - 1
		b := 0
		if h[r].Pri < h[l].Pri {
			b = 1
		}
		c := l + b
		h[i] = h[c]
		i = c
	}
	if l := 2*i + 1; l < n { // a last parent with only a left child
		h[i] = h[l]
		i = l
	}
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].Pri < x.Pri {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = x
	return h, top
}
