package randomize

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"splitmfg/internal/bench"
	"splitmfg/internal/sim"
)

func TestRandomizeReachesHighOER(t *testing.T) {
	nl, err := bench.ISCAS85("c880")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Randomize(context.Background(), nl, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OER < 0.95 {
		t.Fatalf("OER = %.3f after %d swaps, want ≈1", res.OER, len(res.Swaps))
	}
	if len(res.Swaps) == 0 {
		t.Fatal("no swaps recorded")
	}
	if res.Erroneous.HasCombLoop() {
		t.Fatal("loop in erroneous netlist")
	}
	// Gate/net counts unchanged (swaps only rewire).
	if res.Erroneous.NumGates() != nl.NumGates() || res.Erroneous.NumNets() != nl.NumNets() {
		t.Fatal("randomization changed netlist size")
	}
}

func TestProtectedPinsUnique(t *testing.T) {
	nl, _ := bench.ISCAS85("c432")
	res, err := Randomize(context.Background(), nl, 2, Options{MaxSwaps: 20, TargetOER: 2 /*unreachable: use all swaps*/})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range res.Swaps {
		for _, p := range []struct{ g, pin int }{{s.A.Gate, s.A.Pin}, {s.B.Gate, s.B.Pin}} {
			k := string(rune(p.g)) + ":" + string(rune(p.pin))
			if seen[k] {
				t.Fatal("pin swapped twice")
			}
			seen[k] = true
		}
	}
	if len(res.Protected) != 2*len(res.Swaps) {
		t.Fatalf("protected=%d swaps=%d", len(res.Protected), len(res.Swaps))
	}
}

func TestRestoreRecoversOriginal(t *testing.T) {
	nl, _ := bench.ISCAS85("c1355")
	res, err := Randomize(context.Background(), nl, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Erroneous.SameStructure(nl) {
		t.Fatal("erroneous equals original")
	}
	if err := Restore(res.Erroneous, res.Swaps); err != nil {
		t.Fatal(err)
	}
	if !res.Erroneous.SameStructure(nl) {
		t.Fatal("restore did not recover the original structure")
	}
}

func TestErroneousDiffersFunctionally(t *testing.T) {
	nl, _ := bench.ISCAS85("c432")
	res, err := Randomize(context.Background(), nl, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hd, err := sim.HD(nl, res.Erroneous, rand.New(rand.NewSource(4)), 64)
	if err != nil {
		t.Fatal(err)
	}
	if hd <= 0 {
		t.Fatal("erroneous netlist functionally identical")
	}
}

func TestMaxSwapsRespected(t *testing.T) {
	nl, _ := bench.ISCAS85("c432")
	res, err := Randomize(context.Background(), nl, 5, Options{MaxSwaps: 3, TargetOER: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Swaps) > 3 {
		t.Fatalf("swaps = %d > 3", len(res.Swaps))
	}
}

func TestRejectsCyclicInput(t *testing.T) {
	nl, _ := bench.ISCAS85("c432")
	// Manufacture a cycle.
	g0 := nl.Gates[0]
	last := nl.Gates[len(nl.Gates)-1]
	if !nl.PathExists(g0.ID, last.ID) {
		// find some reachable pair
		for _, g := range nl.Gates {
			if nl.PathExists(g0.ID, g.ID) && len(g.Fanin) > 0 {
				last = g
				break
			}
		}
	}
	_ = nl.RewirePin(g0.ID, 0, last.Out)
	if !nl.HasCombLoop() {
		t.Skip("could not create loop for this seed")
	}
	if _, err := Randomize(context.Background(), nl, 6, Options{}); err == nil {
		t.Fatal("cyclic input accepted")
	}
}

func TestPropertyRandomizeInvariants(t *testing.T) {
	f := func(seed int64) bool {
		nl, err := bench.Generate(bench.Spec{
			Name: "p", PIs: 8, POs: 4, Gates: 60, Seed: seed, Locality: 0.7,
		})
		if err != nil {
			return false
		}
		res, err := Randomize(context.Background(), nl, seed, Options{MaxSwaps: 10, PatternWords: 8})
		if err != nil {
			return false
		}
		if res.Erroneous.Validate() != nil || res.Erroneous.HasCombLoop() {
			return false
		}
		// Per-net sink counts are preserved under swaps.
		for id, n := range nl.Nets {
			if n.FanoutCount() != res.Erroneous.Nets[id].FanoutCount() {
				return false
			}
		}
		// Restore is exact.
		if Restore(res.Erroneous, res.Swaps) != nil {
			return false
		}
		return res.Erroneous.SameStructure(nl)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// pollCtx is a context whose Err reports cancellation from its
// (left+1)-th call on, and counts the calls.
type pollCtx struct {
	context.Context
	left, polls int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.polls > c.left {
		return context.Canceled
	}
	return nil
}

// TestRandomizeCancelsMidLoop: Randomize polls its context inside the
// swap loop, not only around it. A run that is never canceled counts the
// polls; a context that cancels at any one of them makes Randomize
// return context.Canceled, and one that outlasts them all changes
// nothing.
func TestRandomizeCancelsMidLoop(t *testing.T) {
	nl, _ := bench.ISCAS85("c432")
	opt := Options{MaxSwaps: 24, TargetOER: 2}
	all := &pollCtx{Context: context.Background(), left: 1 << 30}
	want, err := Randomize(all, nl, 7, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Before the first swap, at each estimate (every checkEvery swaps)
	// and before returning.
	if least := 2 + len(want.Swaps)/checkEvery; all.polls < least {
		t.Fatalf("%d polls over %d swaps, want at least %d", all.polls, len(want.Swaps), least)
	}
	for left := 0; left < all.polls; left++ {
		ctx := &pollCtx{Context: context.Background(), left: left}
		if _, err := Randomize(ctx, nl, 7, opt); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled at poll %d of %d: err = %v, want context.Canceled", left+1, all.polls, err)
		}
		if ctx.polls != left+1 {
			t.Fatalf("canceled at poll %d: polled %d times, want it to stop there", left+1, ctx.polls)
		}
	}
	got, err := Randomize(&pollCtx{Context: context.Background(), left: all.polls}, nl, 7, opt)
	if err != nil || got.OER != want.OER || len(got.Swaps) != len(want.Swaps) {
		t.Fatalf("uncanceled rerun: %v, OER %v with %d swaps, want %v with %d", err, got.OER, len(got.Swaps), want.OER, len(want.Swaps))
	}
}
