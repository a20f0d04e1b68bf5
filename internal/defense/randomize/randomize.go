// Package randomize implements stage (i) of the paper's protection scheme:
// iteratively swapping the connectivity of randomly selected pairs of
// drivers and their sinks — never creating a combinational loop — until the
// output error rate (OER) of the modified netlist approaches 100%. The
// original connectivity and the swapped pins are tracked so that the
// correction stage can later restore true functionality through the BEOL.
package randomize

import (
	"context"
	"fmt"
	"math/rand"

	"splitmfg/internal/netlist"
	"splitmfg/internal/sim"
)

// Swap records one connectivity exchange: after the swap, pin A reads the
// net that fed B and vice versa.
type Swap struct {
	A, B netlist.PinRef
}

// Options tunes randomization.
type Options struct {
	TargetOER    float64 // stop once OER reaches this (default 0.999)
	MaxSwaps     int     // hard cap on swaps (default: 15% of gate input pins)
	PatternWords int     // 64-pattern words per OER estimate (default 64 = 4096 patterns)
}

// checkEvery is the OER evaluation cadence in swaps.
const checkEvery = 4

func (o Options) withDefaults(nl *netlist.Netlist) Options {
	if o.TargetOER == 0 {
		o.TargetOER = 0.999
	}
	if o.MaxSwaps == 0 {
		pins := 0
		for _, g := range nl.Gates {
			pins += len(g.Fanin)
		}
		o.MaxSwaps = pins * 15 / 200 // 7.5% of pins = 15% of pins swapped
		if o.MaxSwaps < 2 {
			o.MaxSwaps = 2
		}
	}
	if o.PatternWords == 0 {
		o.PatternWords = 64
	}
	return o
}

// Result is the randomization outcome.
type Result struct {
	Erroneous *netlist.Netlist // the randomized netlist (same gate/net IDs)
	Swaps     []Swap           // tracked connectivity exchanges
	OER       float64          // final OER of Erroneous vs the original
	Protected map[netlist.PinRef]bool
}

// Randomize produces an erroneous netlist from the original, drawing
// swaps and OER patterns from one stream seeded with seed. Swapped pins
// are unique (each sink participates in at most one swap) so that the
// correction-cell stage can pair cells one-to-one. ctx is checked before
// the first swap, at every OER estimate and before returning.
func Randomize(ctx context.Context, original *netlist.Netlist, seed int64, opt Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults(original)
	if original.HasCombLoop() {
		return nil, fmt.Errorf("randomize: original netlist is cyclic")
	}
	err := original.Validate()
	if err != nil {
		return nil, fmt.Errorf("randomize: %v", err)
	}
	nl := original.Clone()
	res := &Result{Erroneous: nl, Protected: map[netlist.PinRef]bool{}}

	// Candidate pins: all gate input pins. (Datapath alignment constraints
	// would exclude pins here, per the paper's footnote; our benchmarks
	// carry no such constraints.)
	var pins []netlist.PinRef
	for _, g := range nl.Gates {
		for p := range g.Fanin {
			pins = append(pins, netlist.PinRef{Gate: g.ID, Pin: p})
		}
	}
	if len(pins) < 2 {
		return nil, fmt.Errorf("randomize: not enough pins to swap")
	}

	rng := rand.New(rand.NewSource(seed)) //smlint:rawseed callers derive the seed (defense/engine: DeriveSeed(scope, "randomize")) or pass the run's master seed, and every golden pins this stream; re-mixing here would shift them all
	oer := 0.0
	for len(res.Swaps) < opt.MaxSwaps {
		swapped := false
		for try := 0; try < 64; try++ {
			a := pins[rng.Intn(len(pins))]
			b := pins[rng.Intn(len(pins))]
			if a == b || res.Protected[a] || res.Protected[b] {
				continue
			}
			if nl.Gates[a.Gate].Fanin[a.Pin] == nl.Gates[b.Gate].Fanin[b.Pin] {
				continue // same net: no-op swap
			}
			if nl.SwapCreatesLoop(a, b) {
				continue // the paper explicitly forbids loop-forming swaps
			}
			if err := nl.SwapSinks(a, b); err != nil {
				continue
			}
			res.Swaps = append(res.Swaps, Swap{A: a, B: b})
			res.Protected[a] = true
			res.Protected[b] = true
			swapped = true
			break
		}
		if !swapped {
			break // no more feasible swaps
		}
		if len(res.Swaps)%checkEvery == 0 || len(res.Swaps) == opt.MaxSwaps {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			oer, err = sim.OER(original, nl, rng, opt.PatternWords)
			if err != nil {
				return nil, fmt.Errorf("randomize: OER estimation: %v", err)
			}
			if oer >= opt.TargetOER {
				break
			}
		}
	}
	// Final estimate if the cadence missed the last swaps.
	if oer == 0 && len(res.Swaps) > 0 {
		oer, err = sim.OER(original, nl, rng, opt.PatternWords)
		if err != nil {
			return nil, err
		}
	}
	res.OER = oer
	if nl.HasCombLoop() {
		return nil, fmt.Errorf("randomize: produced a combinational loop (bug)")
	}
	if err := nl.Validate(); err != nil {
		return nil, fmt.Errorf("randomize: erroneous netlist invalid: %v", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// Restore applies the tracked swaps in reverse, returning the connectivity
// to the original. Used to verify tracking and by the BEOL restoration
// logic as ground truth.
func Restore(erroneous *netlist.Netlist, swaps []Swap) error {
	for i := len(swaps) - 1; i >= 0; i-- {
		if err := erroneous.SwapSinks(swaps[i].A, swaps[i].B); err != nil {
			return fmt.Errorf("randomize: restore swap %d: %v", i, err)
		}
	}
	return nil
}

// TrueSourceNet returns, for a protected pin, the net that drives it in the
// original netlist (identical net numbering assumed).
func TrueSourceNet(original *netlist.Netlist, pin netlist.PinRef) int {
	return original.Gates[pin.Gate].Fanin[pin.Pin]
}
