package heapx

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// seqHeap is the reference BucketQueue must match: container/heap
// ordered by (priority, −push sequence), so equal priorities pop newest
// first.
type seqHeap []seqItem

type seqItem struct {
	pri int64
	seq int
	val int
}

func (h seqHeap) Len() int { return len(h) }
func (h seqHeap) Less(i, j int) bool {
	if h[i].pri != h[j].pri {
		return h[i].pri < h[j].pri
	}
	return h[i].seq > h[j].seq
}
func (h seqHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *seqHeap) Push(x any)   { *h = append(*h, x.(seqItem)) }
func (h *seqHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// bucketPair is a BucketQueue and its reference, driven in lockstep:
// push(d) pushes the last popped priority plus d to both, and pop fails
// the test unless both pop the same (priority, payload).
type bucketPair struct {
	got   BucketQueue[int]
	want  seqHeap
	floor int64 // the last popped priority: pushes may not go below it
	seq   int
}

func (r *bucketPair) push(d int64) {
	p := r.floor + d
	r.got.Push(p, r.seq)
	heap.Push(&r.want, seqItem{pri: p, seq: r.seq, val: r.seq})
	r.seq++
}

func (r *bucketPair) pop(t *testing.T) {
	t.Helper()
	gp, gv := r.got.Pop()
	w := heap.Pop(&r.want).(seqItem)
	if gp != w.pri || gv != w.val {
		t.Fatalf("after %d pushes: popped (%d, %d), reference pops (%d, %d)", r.seq, gp, gv, w.pri, w.val)
	}
	if r.got.Len() != r.want.Len() {
		t.Fatalf("after %d pushes: %d entries left, reference has %d", r.seq, r.got.Len(), r.want.Len())
	}
	r.floor = gp
}

// TestBucketQueueMatchesTextbook drives random monotone sequences:
// narrow spans, so most priorities tie, and wide ones, which exercise
// the overflow, its drains and floor jumps, from floors on either side
// of zero.
func TestBucketQueueMatchesTextbook(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		span := int64(1 + trial%20)
		// Steps below 20·2^45 keep 2000 of them inside int64.
		shift := uint(trial % 6 * 9)
		r := &bucketPair{floor: rng.Int63n(1<<40) - 1<<39}
		for op := 0; op < 2000; op++ {
			if r.want.Len() == 0 || rng.Intn(5) < 3 {
				r.push(rng.Int63n(span) << shift)
				continue
			}
			r.pop(t)
		}
		for r.want.Len() > 0 {
			r.pop(t)
		}
	}
}

// FuzzBucketQueueMatchesTextbook drives the same differential check from fuzz
// bytes. The first byte picks a span of 1–16 and a step shift of 0–45
// bits. The second picks a starting priority from −3·2^60 to 3·2^60 and
// the queue's Reset floor: d << shift below that priority for d in
// 0–35, or the zero value's math.MinInt64 for d = 36. Each later byte b
// pushes the last popped priority (at first, the starting one) plus
// (b % span) << shift or, for b >= 160 on a non-empty queue, pops; the
// queue is then drained. Every pop must match container/heap ordered by
// (priority, −push sequence).
func FuzzBucketQueueMatchesTextbook(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 2, 3, 200, 4, 200, 200})
	f.Add([]byte{3, 0, 5, 4, 3, 2, 1, 0, 9, 8, 7, 255, 6, 255, 255, 5, 255})
	f.Add([]byte{255, 6, 17, 33, 49, 65, 81, 97, 113, 129, 145, 160, 161, 1, 2, 170, 180})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 {
			return
		}
		span := 1 + int64(ops[0]%16)
		shift := uint(ops[0]/16) * 3
		r := &bucketPair{floor: int64(int(ops[1]%7)-3) << 60}
		if d := int64(ops[1] / 7); d < 36 {
			r.got.Reset(r.floor - d<<shift)
		}
		// At most 4096 steps of at most 15·2^45 keep every priority
		// inside int64.
		for _, b := range ops[2:min(len(ops), 4098)] {
			if b < 160 || r.want.Len() == 0 {
				r.push(int64(b) % span << shift)
				continue
			}
			r.pop(t)
		}
		for r.want.Len() > 0 {
			r.pop(t)
		}
	})
}

func TestBucketQueuePushBelowFloorPanics(t *testing.T) {
	var q BucketQueue[int]
	q.Push(5, 0)
	q.Pop()
	defer func() {
		if recover() == nil {
			t.Fatal("push below the last popped priority did not panic")
		}
	}()
	q.Push(4, 1)
}

// TestBucketQueueResetReuses checks that Reset lifts the floor and that
// a queue reused across searches stops allocating.
func TestBucketQueueResetReuses(t *testing.T) {
	var q BucketQueue[int32]
	run := func() {
		q.Reset(math.MinInt64)
		for i := int32(0); i < 256; i++ {
			q.Push(int64(i%17)*1000, i)
		}
		for q.Len() > 0 {
			p, _ := q.Pop()
			if p < 1e4 {
				q.Push(p+1e4+int64(p%7), 0)
			}
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("reused queue allocates %.1f times per search", allocs)
	}
	q.Reset(math.MinInt64)
	q.Push(-1, 0) // below the previous search's last pop
	if p, _ := q.Pop(); p != -1 {
		t.Fatalf("after Reset popped %d, want -1", p)
	}
}

// overflow fails the test unless exactly want entries wait outside the
// queue's window.
func (r *bucketPair) overflow(t *testing.T, want int) {
	t.Helper()
	if got := len(r.got.over); got != want {
		t.Fatalf("after %d pushes: %d entries in the overflow, want %d", r.seq, got, want)
	}
}

// TestBucketQueueWindow pins the window's edges and the drain rule.
// Every case starts from a floor set by one push and pop, and every pop
// is checked against the reference as well.
func TestBucketQueueWindow(t *testing.T) {
	const w = bucketWindow
	cases := []struct {
		name string
		run  func(t *testing.T, r *bucketPair)
	}{
		{"pushes at w-1, w and w+1 above the floor", func(t *testing.T, r *bucketPair) {
			r.push(w - 1)
			r.overflow(t, 0)
			r.push(w)
			r.push(w + 1)
			r.overflow(t, 2)
			r.pop(t) // the floor moves up w-1 and the window covers both
			r.overflow(t, 0)
			r.pop(t)
			r.pop(t)
		}},
		{"a direct push of a drained key pops first", func(t *testing.T, r *bucketPair) {
			r.push(w + 5) // outside the window
			r.push(w + 5)
			r.push(10)
			r.overflow(t, 2)
			r.pop(t) // floor +10: both w+5 entries drain, oldest first
			r.overflow(t, 0)
			r.push(w - 5) // the same priority, now a direct push
			r.overflow(t, 0)
			for i := 0; i < 3; i++ {
				r.pop(t) // the direct push, then the drained two, newest first
			}
		}},
		{"reset with overflow entries pending", func(t *testing.T, r *bucketPair) {
			r.push(3)
			r.push(2 * w)
			r.push(5 * w)
			r.overflow(t, 2)
			r.got.Reset(math.MinInt64)
			r.want = r.want[:0]
			if r.got.Len() != 0 {
				t.Fatalf("Reset left %d entries", r.got.Len())
			}
			r.floor -= 7 * w // Reset lifts the floor
			r.push(0)
			r.push(w)
			r.pop(t)
			r.pop(t)
		}},
		{"reset to a raised floor links pushes inside its window", func(t *testing.T, r *bucketPair) {
			r.floor += 10 * w
			r.got.Reset(r.floor)
			r.push(w - 1)
			r.push(0) // at the floor itself
			r.push(5)
			r.push(5)
			r.overflow(t, 0)
			r.push(w) // the window's end
			r.overflow(t, 1)
			for i := 0; i < 5; i++ {
				r.pop(t) // 0, then both 5s newest first, then w-1, then w
			}
		}},
		{"reset to a floor below every push", func(t *testing.T, r *bucketPair) {
			r.floor += 20 * w
			r.got.Reset(r.floor - 3)
			r.push(w - 4) // w-1 above the Reset floor: links
			r.push(w - 3) // w above it: overflow
			r.push(2 * w)
			r.overflow(t, 2)
			r.pop(t) // the floor rises by w-1 and drains w-3
			r.overflow(t, 1)
			r.pop(t)
			r.pop(t)
		}},
		{"a pop that empties the window jumps to the overflow minimum", func(t *testing.T, r *bucketPair) {
			// Priorities below are relative to the starting floor f.
			f := r.floor
			r.push(1)
			r.push(6 * w)
			r.push(5*w + 3)
			r.push(5 * w)
			r.push(6*w - 1)
			r.overflow(t, 4)
			r.pop(t) // f+1; the window is now empty
			r.pop(t) // jumps to f+5w and drains f+5w+3 and f+6w-1
			if r.floor != f+5*w {
				t.Fatalf("jumped to f%+d, want f+5w", r.floor-f)
			}
			r.overflow(t, 1) // f+6w lies just past the window
			r.pop(t)         // f+5w+3, which drains f+6w
			r.overflow(t, 0)
			r.pop(t)
			r.pop(t)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := &bucketPair{floor: -3 * w}
			r.push(0)
			r.pop(t)
			c.run(t, r)
			if r.got.Len() != 0 || r.want.Len() != 0 {
				t.Fatalf("%d entries left, reference has %d", r.got.Len(), r.want.Len())
			}
		})
	}
}
