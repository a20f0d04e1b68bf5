package heapx

import (
	"math/rand"
	"sort"
	"testing"
)

// refPush and refPop are the textbook swap-based binary heap (the
// algorithm container/heap implements). Push and Pop must match them
// item for item and slot for slot — see the package comment.
func refPush(h []Item[int], it Item[int]) []Item[int] {
	h = append(h, it)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].Pri <= h[i].Pri {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	return h
}

func refPop(h []Item[int]) ([]Item[int], Item[int]) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h[l].Pri < h[small].Pri {
			small = l
		}
		if r < n && h[r].Pri < h[small].Pri {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return h, top
}

func TestHeapSortsRandomInput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		in := make([]int, n)
		var h []Item[int]
		for i := range in {
			in[i] = rng.Intn(50) // duplicates included
			h = Push(h, Item[int]{Pri: int64(in[i]), Value: i})
		}
		sort.Ints(in)
		for i := 0; i < n; i++ {
			var got Item[int]
			h, got = Pop(h)
			if got.Pri != int64(in[i]) {
				t.Fatalf("trial %d: pop %d = %d, want %d", trial, i, got.Pri, in[i])
			}
		}
		if len(h) != 0 {
			t.Fatalf("trial %d: heap not drained: %d left", trial, len(h))
		}
	}
}

// TestHeapMatchesTextbookOrder pins the tie order: interleaved random
// pushes and pops over narrow priority spans (so most priorities tie)
// must pop the same items as the textbook heap and leave the same slice.
func TestHeapMatchesTextbookOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		span := 1 + trial%20
		var got, want []Item[int]
		for op := 0; op < 3000; op++ {
			if len(want) == 0 || rng.Intn(5) < 3 {
				it := Item[int]{Pri: int64(rng.Intn(span)), Value: op}
				got = Push(got, it)
				want = refPush(want, it)
				continue
			}
			var g, w Item[int]
			got, g = Pop(got)
			want, w = refPop(want)
			if g != w {
				t.Fatalf("trial %d (span %d) op %d: popped %+v, textbook pops %+v", trial, span, op, g, w)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d items left, textbook has %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: slot %d holds %+v, textbook holds %+v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestHeapSingleElement(t *testing.T) {
	h := Push(nil, Item[string]{Pri: 7, Value: "x"})
	h, got := Pop(h)
	if got.Value != "x" || got.Pri != 7 || len(h) != 0 {
		t.Fatalf("got %+v, %d left", got, len(h))
	}
}

func TestHeapReusesBacking(t *testing.T) {
	h := make([]Item[int], 0, 64)
	h = Push(h, Item[int]{Pri: 3})
	h = Push(h, Item[int]{Pri: 1})
	h, _ = Pop(h)
	h, _ = Pop(h)
	if cap(h) != 64 {
		t.Fatalf("backing array reallocated: cap %d", cap(h))
	}
}
