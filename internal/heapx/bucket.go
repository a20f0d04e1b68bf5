package heapx

import "math/bits"

// BucketQueue is a monotone min-priority queue of payloads V: a
// two-level bucket queue after Dial ("Algorithm 360: shortest-path
// forest with topological ordering", CACM 1969). It is correct only
// while every pushed priority is at least the last popped one — which
// holds for Dijkstra and for A* under a consistent bound — and Push
// panics otherwise.
//
// The floor is the last popped priority or, before the first pop, the
// one Reset set (math.MinInt64 in the zero value). The window [floor,
// floor+bucketWindow) has one LIFO bucket per exact priority: a push
// inside it links the entry on top of its bucket in O(1), and an
// occupancy bitmap finds the next non-empty bucket. A push at or above
// the window's end goes to an overflow binary heap ordered by
// (priority, push order). Whenever a pop advances the floor, every
// overflow entry the window now covers drains into its bucket, oldest
// first, before the pop returns; a pop that finds the window empty first
// jumps the floor to the overflow minimum. An entry therefore waits in
// the overflow only while its priority lies outside the window.
//
// Equal priorities pop newest push first. A priority enters the window
// once, at Reset or when the floor comes within bucketWindow of it, and
// stays inside until it pops: every push of it before that went to the overflow, and
// every push after goes straight to its bucket. Its bucket is empty when
// it drains, the drain stacks the overflow's entries oldest first, and
// every later direct push lands on top of them, so the bucket holds all
// of that priority's entries in push order and pops them from the top.
// Popping (priority, payload) pairs therefore reproduces, exactly, a
// binary heap ordered by (priority, −push sequence) — the order of the
// radix heap this queue replaced; bucket_test.go checks that
// differentially.
//
// The zero value is an empty queue ready to use. Bucket entries live in
// one pool whose freed slots are reused, and Reset keeps the pool and
// the overflow's backing arrays, so a queue reused across searches stops
// allocating once they have grown.
type BucketQueue[V any] struct {
	last uint64 // the floor, as a key
	nb   int    // entries in the buckets
	// head[k & bucketMask] is the pool index of the top entry of key k's
	// bucket; it is meaningful only while occ marks that bucket non-empty.
	head [bucketWindow]int32
	occ  [bucketWindow / 64]uint64
	pool []bucketEntry[V]
	free int32 // 1 + pool index of the first free entry; 0 if none
	over []overflowEntry[V]
	seq  uint64 // overflow pushes since Reset: the overflow's tie order
}

// bucketWindow is the number of exact-priority buckets: a push less
// than this far above the floor is an O(1) link. A* pushes on the
// superblue workloads land almost all within it (DESIGN.md "Monotone A*
// frontier").
const (
	bucketWindow = 1 << 12
	bucketMask   = bucketWindow - 1
)

// bucketEntry is one payload in a bucket; next links to the entry below
// it, as 1 + its pool index, or is 0 at the bottom. A freed entry's next
// links the free list the same way.
type bucketEntry[V any] struct {
	val  V
	next int32
}

// overflowEntry is one payload waiting outside the window. Priorities
// are stored as keys, uint64(p) with the sign bit flipped, so that
// unsigned key order is int64 priority order.
type overflowEntry[V any] struct {
	key, seq uint64
	val      V
}

const signBit = 1 << 63

// Len returns the number of entries.
func (q *BucketQueue[V]) Len() int { return q.nb + len(q.over) }

// Reset empties the queue, keeps the pool and the overflow's backing
// arrays for reuse, and sets the floor to floor: no push may go below
// it. A caller that knows the lowest priority it will push before its
// first pop passes it, so that every push within the window of it links
// into its bucket at once instead of waiting in the overflow for that
// pop. The pop order is the same either way: a key's entries reach its
// bucket in push order by both routes. math.MinInt64 lets the next push
// have any priority.
func (q *BucketQueue[V]) Reset(floor int64) {
	q.occ = [bucketWindow / 64]uint64{}
	q.pool = q.pool[:0]
	q.free = 0
	q.over = q.over[:0]
	q.last, q.nb, q.seq = uint64(floor)^signBit, 0, 0
}

// Push adds v with priority p, which must be at least the last popped
// priority.
//
//smlint:hot
func (q *BucketQueue[V]) Push(p int64, v V) {
	k := uint64(p) ^ signBit
	if k < q.last {
		panic("heapx: BucketQueue.Push below the last popped priority")
	}
	if k-q.last < bucketWindow {
		q.link(k, v)
		return
	}
	q.pushOverflow(k, v)
}

// Pop removes and returns the minimum entry's priority and payload; of
// equal priorities, the newest push. It panics on an empty queue.
//
//smlint:hot
func (q *BucketQueue[V]) Pop() (int64, V) {
	if q.nb == 0 {
		q.last = q.over[0].key // the window is empty: jump to the overflow
		q.drain()
	} else if d := q.nextOffset(); d > 0 {
		q.last += d
		q.drain()
	}
	s := q.last & bucketMask
	i := q.head[s]
	e := &q.pool[i]
	v := e.val
	if e.next == 0 {
		q.occ[s>>6] &^= 1 << (s & 63)
	} else {
		q.head[s] = e.next - 1
	}
	e.next = q.free
	q.free = i + 1
	q.nb--
	return int64(q.last ^ signBit), v
}

// link puts v on top of key k's bucket, which the window covers.
//
//smlint:hot
func (q *BucketQueue[V]) link(k uint64, v V) {
	s := k & bucketMask
	var i int32
	if q.free != 0 {
		i = q.free - 1
		q.free = q.pool[i].next
	} else {
		i = int32(len(q.pool))
		q.pool = append(q.pool, bucketEntry[V]{})
	}
	var next int32
	if bit := uint64(1) << (s & 63); q.occ[s>>6]&bit != 0 {
		next = q.head[s] + 1
	} else {
		q.occ[s>>6] |= bit
	}
	q.pool[i] = bucketEntry[V]{val: v, next: next}
	q.head[s] = i
	q.nb++
}

// nextOffset returns how far above the floor the lowest non-empty
// bucket's priority lies. The buckets form a ring indexed by key modulo
// bucketWindow, so the scan starts at the floor's bucket and wraps; at
// least one bucket must be non-empty.
func (q *BucketQueue[V]) nextOffset() uint64 {
	s := q.last & bucketMask
	w := s >> 6
	if m := q.occ[w] >> (s & 63); m != 0 {
		return uint64(bits.TrailingZeros64(m))
	}
	for j := w + 1; ; j++ {
		if m := q.occ[j%uint64(len(q.occ))]; m != 0 {
			return (j*64 + uint64(bits.TrailingZeros64(m)) - s) & bucketMask
		}
	}
}

// drain moves every overflow entry the window covers into its bucket,
// in (key, push order): each key's bucket is empty when its entries
// arrive, so they stack oldest first.
func (q *BucketQueue[V]) drain() {
	for len(q.over) > 0 && q.over[0].key-q.last < bucketWindow {
		e := q.popOverflow()
		q.link(e.key, e.val)
	}
}

// pushOverflow adds an entry beyond the window to the overflow heap.
func (q *BucketQueue[V]) pushOverflow(k uint64, v V) {
	x := overflowEntry[V]{key: k, seq: q.seq, val: v}
	q.seq++
	h := append(q.over, x)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = x
	q.over = h
}

// popOverflow removes and returns the overflow's minimum entry.
func (q *BucketQueue[V]) popOverflow() overflowEntry[V] {
	h := q.over
	top := h[0]
	n := len(h) - 1
	x := h[n]
	h = h[:n]
	q.over = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
	return top
}

// before orders overflow entries by key, then push order; no two
// entries tie.
func (e *overflowEntry[V]) before(f *overflowEntry[V]) bool {
	return e.key < f.key || e.key == f.key && e.seq < f.seq
}
