package heapx

import (
	"math/rand"
	"sort"
	"testing"
)

// refPush and refPop are the textbook swap-based binary heap (the
// algorithm container/heap implements) on the same two arrays. Push and
// Pop must match them entry for entry and slot for slot — see the
// package comment.
func refPush(h *Heap[int], p int64, v int) {
	h.pri = append(h.pri, p)
	h.val = append(h.val, v)
	i := len(h.pri) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.pri[parent] <= h.pri[i] {
			break
		}
		refSwap(h, parent, i)
		i = parent
	}
}

func refPop(h *Heap[int]) (int64, int) {
	topP, topV := h.pri[0], h.val[0]
	n := len(h.pri) - 1
	refSwap(h, 0, n)
	h.pri, h.val = h.pri[:n], h.val[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.pri[l] < h.pri[small] {
			small = l
		}
		if r < n && h.pri[r] < h.pri[small] {
			small = r
		}
		if small == i {
			break
		}
		refSwap(h, i, small)
		i = small
	}
	return topP, topV
}

func refSwap(h *Heap[int], i, j int) {
	h.pri[i], h.pri[j] = h.pri[j], h.pri[i]
	h.val[i], h.val[j] = h.val[j], h.val[i]
}

// sameSlots fails unless got holds exactly want's entries in want's slots.
func sameSlots(t *testing.T, got, want *Heap[int]) {
	t.Helper()
	if got.Len() != want.Len() || len(got.val) != len(want.val) {
		t.Fatalf("%d/%d entries left, textbook has %d/%d", got.Len(), len(got.val), want.Len(), len(want.val))
	}
	for i := range want.pri {
		if got.pri[i] != want.pri[i] || got.val[i] != want.val[i] {
			t.Fatalf("slot %d holds (%d, %d), textbook holds (%d, %d)",
				i, got.pri[i], got.val[i], want.pri[i], want.val[i])
		}
	}
}

func TestHeapSortsRandomInput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		in := make([]int, n)
		var h Heap[int]
		for i := range in {
			in[i] = rng.Intn(50) // duplicates included
			h.Push(int64(in[i]), i)
		}
		sort.Ints(in)
		for i := 0; i < n; i++ {
			if p, _ := h.Pop(); p != int64(in[i]) {
				t.Fatalf("trial %d: pop %d = %d, want %d", trial, i, p, in[i])
			}
		}
		if h.Len() != 0 {
			t.Fatalf("trial %d: heap not drained: %d left", trial, h.Len())
		}
	}
}

// TestHeapMatchesTextbookOrder pins the tie order: interleaved random
// pushes and pops over narrow priority spans (so most priorities tie)
// must pop the same entries as the textbook heap and leave the same
// slots.
func TestHeapMatchesTextbookOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		span := 1 + trial%20
		var got, want Heap[int]
		for op := 0; op < 3000; op++ {
			if want.Len() == 0 || rng.Intn(5) < 3 {
				p := int64(rng.Intn(span))
				got.Push(p, op)
				refPush(&want, p, op)
				continue
			}
			gp, gv := got.Pop()
			wp, wv := refPop(&want)
			if gp != wp || gv != wv {
				t.Fatalf("trial %d (span %d) op %d: popped (%d, %d), textbook pops (%d, %d)", trial, span, op, gp, gv, wp, wv)
			}
		}
		sameSlots(t, &got, &want)
	}
}

// FuzzHeapMatchesTextbook drives the same differential check from fuzz
// bytes: the first byte picks a priority span of 1–16, and each later
// byte pushes (byte % span) or, for bytes >= 160 on a non-empty heap,
// pops. Every pop and the final slot layout must match the textbook heap.
func FuzzHeapMatchesTextbook(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 200, 4, 200, 200})
	f.Add([]byte{3, 5, 4, 3, 2, 1, 0, 9, 8, 7, 255, 6, 255, 255, 5, 255})
	f.Add([]byte{15, 17, 33, 49, 65, 81, 97, 113, 129, 145, 160, 161, 1, 2, 170, 180})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		span := 1 + int(ops[0])%16
		var got, want Heap[int]
		for k, b := range ops[1:] {
			if b < 160 || want.Len() == 0 {
				p := int64(int(b) % span)
				got.Push(p, k)
				refPush(&want, p, k)
				continue
			}
			gp, gv := got.Pop()
			wp, wv := refPop(&want)
			if gp != wp || gv != wv {
				t.Fatalf("op %d (span %d): popped (%d, %d), textbook pops (%d, %d)", k, span, gp, gv, wp, wv)
			}
		}
		sameSlots(t, &got, &want)
	})
}

func TestHeapSingleElement(t *testing.T) {
	var h Heap[string]
	h.Push(7, "x")
	p, v := h.Pop()
	if v != "x" || p != 7 || h.Len() != 0 {
		t.Fatalf("got (%d, %q), %d left", p, v, h.Len())
	}
}

func TestHeapReusesBacking(t *testing.T) {
	h := New[int](64)
	h.Push(3, 0)
	h.Push(1, 1)
	h.Pop()
	h.Pop()
	h.Reset()
	h.Push(2, 2)
	if cap(h.pri) != 64 || cap(h.val) != 64 {
		t.Fatalf("backing arrays reallocated: caps %d, %d", cap(h.pri), cap(h.val))
	}
}
