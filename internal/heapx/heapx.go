// Package heapx holds the priority queues of the hot paths that outgrew
// container/heap. Neither boxes entries in interface{} (one allocation
// per push) nor dispatches indirectly, and both are reused across
// searches: Reset keeps their backing arrays.
//
// Heap is a binary min-heap shared by the coarse planner and the MCMF
// solver. It keeps its entries as a struct of arrays: int64 priorities
// in one slice, payloads in a parallel one. Every comparison is a direct
// integer compare, and the pop's min-child walk — a chain of dependent
// loads — reads 8-byte priority slots instead of whole entries.
//
// Equal priorities pop from a Heap in exactly the order the textbook
// swap-based sift-up/sift-down heap (container/heap's algorithm) pops
// them, and every slot holds the same entry as the textbook heap's slice
// after every call. The coarse planner depends on that: it breaks equal
// priorities by pop order, so a heap that reordered ties would change
// every planned corridor. The MCMF does not: each sweep raises every
// potential by min(dist, the sink's distance), which is the same
// whichever equal-distance node the Dijkstra settles first, so its flows
// do not depend on the tie order. heapx_test.go keeps the textbook heap
// as a reference and checks both properties differentially, by table and
// by fuzzing.
//
// BucketQueue is the monotone bucket queue under the router's A*, whose
// consistent bound never pushes below the last popped f-score. It pops
// equal priorities newest push first, exactly as container/heap ordered
// by (priority, −push sequence) does; bucket_test.go checks that the
// same two ways. Routed layouts therefore depend on BucketQueue's tie
// rule, not on the textbook heap's.
package heapx

// Heap is a min-heap of payloads V ordered by int64 priority: the
// smallest priority pops first, and equal priorities pop in the
// textbook binary heap's order (see the package comment). The zero
// value is an empty heap ready to use.
type Heap[V any] struct {
	pri []int64
	val []V // val[i] is the payload of pri[i]
}

// New returns an empty heap with room for n entries before it grows.
func New[V any](n int) Heap[V] {
	return Heap[V]{pri: make([]int64, 0, n), val: make([]V, 0, n)}
}

// Len returns the number of entries.
func (h *Heap[V]) Len() int { return len(h.pri) }

// Reset empties the heap and keeps its backing arrays for reuse.
func (h *Heap[V]) Reset() {
	h.pri = h.pri[:0]
	h.val = h.val[:0]
}

// Push adds v with priority p. Parents move down into the hole instead
// of being swapped, and the entry is written once where the textbook
// sift-up would have stopped.
func (h *Heap[V]) Push(p int64, v V) {
	pri := append(h.pri, p)
	val := append(h.val, v)
	i := len(pri) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if pri[parent] <= p {
			break
		}
		pri[i] = pri[parent]
		val[i] = val[parent]
		i = parent
	}
	pri[i] = p
	val[i] = v
	h.pri, h.val = pri, val
}

// Pop removes and returns the minimum entry's priority and payload. It
// panics on an empty heap (same contract as container/heap).
//
// Pop is bottom-up: the hole left at the root walks down the min-child
// path to a leaf (ties go to the left child, as in the textbook
// sift-down), then the former last entry sifts up from that leaf while
// its parent's priority is >= its own. The min-child path does not depend
// on the moved entry, and priorities along it never decrease, so it comes
// to rest in exactly the slot where the textbook sift-down stops — same
// layout, fewer compares. The child is picked with a flag rather than a
// branch (the compiler emits SETcc): which child is smaller is a coin
// flip on A* frontiers, so a branch mispredicts about every other level,
// and that — not the heap's depth — is what bounds a pop.
func (h *Heap[V]) Pop() (int64, V) {
	pri, val := h.pri, h.val
	topP, topV := pri[0], val[0]
	n := len(pri) - 1
	xp, xv := pri[n], val[n]
	pri, val = pri[:n], val[:n]
	h.pri, h.val = pri, val
	if n == 0 {
		return topP, topV
	}
	i := 0
	for r := 2; r < n; r = 2*i + 2 {
		l := r - 1
		b := 0
		if pri[r] < pri[l] {
			b = 1
		}
		c := l + b
		pri[i] = pri[c]
		val[i] = val[c]
		i = c
	}
	if l := 2*i + 1; l < n { // a last parent with only a left child
		pri[i] = pri[l]
		val[i] = val[l]
		i = l
	}
	for i > 0 {
		parent := (i - 1) / 2
		if pri[parent] < xp {
			break
		}
		pri[i] = pri[parent]
		val[i] = val[parent]
		i = parent
	}
	pri[i] = xp
	val[i] = xv
	return topP, topV
}
