package heapx

import "math/bits"

// Radix is a monotone min-priority queue of payloads V: a radix heap
// (Ahuja, Mehlhorn, Orlin and Tarjan, "Faster algorithms for the shortest
// path problem", J. ACM 1990). It is correct only while every pushed
// priority is at least the last popped one — which holds for Dijkstra
// and for A* under a consistent bound — and Push panics otherwise.
//
// Entries sit in 65 buckets indexed by bits.Len64(p ^ last), where last
// is the last popped priority: bucket 0 holds priorities equal to last,
// and bucket i > 0 those whose highest bit that differs from last is bit
// i − 1. A push appends to its bucket in O(1). A pop takes from bucket 0,
// or first finds the lowest non-empty bucket, makes its minimum the new
// last and redistributes the bucket around it; every entry lands in a
// lower bucket, so each entry moves at most 64 times and a pop costs
// amortized O(log C) for a priority spread C.
//
// Equal priorities pop newest push first. Pushes append, and a
// redistribution moves a bucket's entries in order into lower buckets,
// all empty at that moment, so every bucket stays in push order, and
// bucket 0 pops from its end. Popping (priority, payload)
// pairs therefore reproduces, exactly, a binary heap ordered by
// (priority, −push sequence); radix_test.go checks that differentially.
//
// The zero value is an empty queue ready to use; Reset keeps every
// bucket's backing array, so a queue reused across searches stops
// allocating once its buckets have grown.
type Radix[V any] struct {
	last uint64 // the last popped priority, as a key
	n    int
	b    [65][]radixEntry[V]
}

// radixEntry is one queued payload. Priorities are stored as keys,
// uint64(p) with the sign bit flipped, so that unsigned key order is
// int64 priority order and bits.Len64 of two keys' XOR gives the bucket.
type radixEntry[V any] struct {
	key uint64
	val V
}

const signBit = 1 << 63

// Len returns the number of entries.
func (q *Radix[V]) Len() int { return q.n }

// Reset empties the queue, keeps every bucket's backing array for reuse,
// and lifts the monotone floor: the next push may have any priority.
func (q *Radix[V]) Reset() {
	for i := range q.b {
		q.b[i] = q.b[i][:0]
	}
	q.last, q.n = 0, 0
}

// Push adds v with priority p, which must be at least the last popped
// priority.
//
//smlint:hot
func (q *Radix[V]) Push(p int64, v V) {
	k := uint64(p) ^ signBit
	if k < q.last {
		panic("heapx: Radix.Push below the last popped priority")
	}
	i := bits.Len64(k ^ q.last)
	q.b[i] = append(q.b[i], radixEntry[V]{key: k, val: v})
	q.n++
}

// Pop removes and returns the minimum entry's priority and payload; of
// equal priorities, the newest push. It panics on an empty queue.
//
//smlint:hot
func (q *Radix[V]) Pop() (int64, V) {
	if len(q.b[0]) == 0 {
		q.refill()
	}
	b := q.b[0]
	e := b[len(b)-1]
	q.b[0] = b[:len(b)-1]
	q.n--
	return int64(e.key ^ signBit), e.val
}

// refill makes the lowest non-empty bucket's minimum the new last and
// redistributes that bucket around it, which fills bucket 0. It panics
// (index out of range) on an empty queue.
func (q *Radix[V]) refill() {
	i := 1
	//smlint:bounded at most 65 buckets: the scan stops at the first non-empty one and indexes out of range past the last
	for len(q.b[i]) == 0 {
		i++
	}
	b := q.b[i]
	m := b[0].key
	for _, e := range b[1:] {
		m = min(m, e.key)
	}
	q.last = m
	for _, e := range b {
		j := bits.Len64(e.key ^ m)
		q.b[j] = append(q.b[j], e)
	}
	q.b[i] = b[:0]
}
