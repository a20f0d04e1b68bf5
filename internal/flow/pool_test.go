package flow

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"splitmfg/internal/attack/engine"
	"splitmfg/internal/bench"
	"splitmfg/internal/cell"
	"splitmfg/internal/defense/correction"
	"splitmfg/internal/layout"
)

const panicValue = "attacker exploded"

// panicEngine stands in for a bug in a layer attack: it panics on a pool
// goroutine, where nothing but the pool can recover it.
type panicEngine struct{}

func (panicEngine) Name() string { return "test-panic" }

func (panicEngine) Attack(context.Context, *layout.Design, *layout.SplitView, engine.Options) (engine.Result, error) {
	panic(panicValue)
}

func TestRunPoolPanicBecomesTaskError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		errs := runPool(5, workers, func(i, _ int) error {
			ran.Add(1)
			if i == 2 {
				panic(panicValue)
			}
			return nil
		}, nil)
		if ran.Load() != 5 {
			t.Fatalf("workers %d: %d of 5 tasks ran", workers, ran.Load())
		}
		for i, err := range errs {
			if (err != nil) != (i == 2) {
				t.Fatalf("workers %d: task %d error %v", workers, i, err)
			}
		}
		if !strings.Contains(errs[2].Error(), panicValue) || !strings.Contains(errs[2].Error(), "goroutine") {
			t.Fatalf("workers %d: panic error lacks the value or the stack: %v", workers, errs[2])
		}
	}
}

// TestRunPoolShares: the pool is the flow's one budget split. It runs at
// most min(P, n) tasks at once and grants each the rest of the budget, so
// nested pools and route waves never multiply past P.
func TestRunPoolShares(t *testing.T) {
	for n := 0; n <= 6; n++ {
		for p := 1; p <= 8; p++ {
			var running, peak, ran atomic.Int32
			runPool(n, p, func(i, share int) error {
				cur := running.Add(1)
				for old := peak.Load(); cur > old && !peak.CompareAndSwap(old, cur); old = peak.Load() {
				}
				time.Sleep(time.Millisecond) // let concurrent tasks overlap
				running.Add(-1)
				ran.Add(1)
				if want := max(1, p/min(p, n)); share != want {
					t.Errorf("n=%d P=%d: task %d got share %d, want %d", n, p, i, share, want)
				}
				return nil
			}, nil)
			if int(ran.Load()) != n {
				t.Errorf("n=%d P=%d: %d tasks ran", n, p, ran.Load())
			}
			if int(peak.Load()) > min(p, n) {
				t.Errorf("n=%d P=%d: %d tasks ran at once, want at most %d", n, p, peak.Load(), min(p, n))
			}
		}
	}
}

func TestPanicInAttackBecomesError(t *testing.T) {
	engine.Register(panicEngine{})
	nl, err := bench.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	lib := cell.NewNangate45Like()
	d, err := correction.BuildOriginal(nl, lib, correction.Options{LiftLayer: 6, UtilPercent: 70, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4} {
		t.Run(fmt.Sprintf("security/p%d", p), func(t *testing.T) {
			_, err := EvaluateSecurity(context.Background(), d, nl, nil, Options{
				SplitLayers: []int{3, 4}, Attackers: []string{"test-panic"}, PatternWords: 16, Parallelism: p,
			})
			if err == nil || !strings.Contains(err.Error(), panicValue) {
				t.Fatalf("EvaluateSecurity returned %v, want the panic as an error", err)
			}
		})
		t.Run(fmt.Sprintf("matrix/p%d", p), func(t *testing.T) {
			_, err := EvaluateMatrix(context.Background(), lib, Bench{Name: "c432", Netlist: nl, LiftLayer: 6, UtilPercent: 70}, Options{
				Defenses: []string{"pin-swapping"}, Attackers: []string{"test-panic"},
				SplitLayers: []int{3, 4}, PatternWords: 16, Parallelism: p,
			})
			if err == nil || !strings.Contains(err.Error(), panicValue) {
				t.Fatalf("EvaluateMatrix returned %v, want the panic as an error", err)
			}
		})
	}
}

// TestPanicInProgressReleasesEmitter: a ProgressFunc that panics once must
// fail its layer without leaving the emitter locked, or the next layer's
// event would deadlock the serial pool.
func TestPanicInProgressReleasesEmitter(t *testing.T) {
	nl, err := bench.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	d, err := correction.BuildOriginal(nl, cell.NewNangate45Like(), correction.Options{LiftLayer: 6, UtilPercent: 70, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	_, err = EvaluateSecurity(context.Background(), d, nl, nil, Options{
		SplitLayers: []int{3, 4}, Attackers: []string{"random"}, PatternWords: 16, Parallelism: 1,
		Progress: func(Event) {
			calls++
			if calls == 1 {
				panic(panicValue)
			}
		},
	})
	if err == nil || !strings.Contains(err.Error(), panicValue) {
		t.Fatalf("EvaluateSecurity returned %v, want the progress panic as an error", err)
	}
	if calls != 2 {
		t.Fatalf("progress called %d times, want 2 (one per layer)", calls)
	}
}
