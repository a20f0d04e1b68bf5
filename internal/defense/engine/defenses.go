package engine

import (
	"context"
	"math/rand"

	"splitmfg/internal/cell"
	"splitmfg/internal/defense/baselines"
	"splitmfg/internal/defense/correction"
	"splitmfg/internal/defense/randomize"
	"splitmfg/internal/layout"
	"splitmfg/internal/netlist"
	"splitmfg/internal/route"
)

func init() {
	Register(randomizeCorrection{})
	Register(naiveLifted{})
	Register(flatDefense{name: "placement-perturbation", build: baselines.PlacementPerturbation})
	Register(flatDefense{name: "sengupta-random", build: sengupta(baselines.Random)})
	Register(flatDefense{name: "sengupta-gcolor", build: sengupta(baselines.GColor)})
	Register(flatDefense{name: "sengupta-gtype1", build: sengupta(baselines.GType1)})
	Register(flatDefense{name: "sengupta-gtype2", build: sengupta(baselines.GType2)})
	Register(pinSwapping{})
	Register(flatDefense{name: "routing-perturbation", build: baselines.RoutingPerturbation})
	Register(flatDefense{name: "synergistic", build: baselines.Synergistic})
	Register(flatDefense{name: "routing-blockage", build: baselines.RoutingBlockage})
}

// randomizeRNG is the sink-selection stream shared by the lifting schemes:
// deriving it from a common label (rather than per scheme) is what makes
// naive-lifted protect the same pins as randomize-correction at one scope
// seed — the paper's like-for-like baseline.
func randomizeRNG(o Options) *rand.Rand {
	return rand.New(rand.NewSource(DeriveSeed(o.Seed, "randomize")))
}

func (o Options) baselineOptions() baselines.Options {
	return baselines.Options{UtilPercent: o.UtilPercent, Seed: o.Seed, Fraction: o.Fraction,
		RouteOpt: route.Options{Strategy: o.RouteStrategy}}
}

func (o Options) correctionOptions() correction.Options {
	return correction.Options{LiftLayer: o.LiftLayer, UtilPercent: o.UtilPercent, Seed: o.Seed,
		RouteOpt: route.Options{Strategy: o.RouteStrategy}}
}

// randomizeCorrection is the paper's proposed scheme: one randomization
// pass to the target OER, then correction-cell construction with BEOL
// restoration. The PPA-budget escalation loop is flow.Protect's concern;
// as a registry row the scheme is the attacker-facing layout itself.
type randomizeCorrection struct{}

func (randomizeCorrection) Name() string { return "randomize-correction" }

func (randomizeCorrection) Protect(ctx context.Context, nl *netlist.Netlist, lib *cell.Library, opt Options) (*Protected, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r, err := randomize.Randomize(nl, randomizeRNG(opt), randomize.Options{TargetOER: opt.TargetOER})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p, err := correction.BuildProtected(nl, r, lib, opt.correctionOptions())
	if err != nil {
		return nil, err
	}
	return &Protected{
		Design:        p.Design,
		ProtectedPins: p.ProtectedSinks(),
		Swaps:         len(r.Swaps),
		Corr:          p,
		Metrics: map[string]float64{
			"swaps":         float64(len(r.Swaps)),
			"erroneous_oer": r.OER,
		},
	}, nil
}

// naiveLifted is the paper's naive baseline: the sinks the proposed scheme
// would randomize are lifted through pass-through cells, netlist untouched.
type naiveLifted struct{}

func (naiveLifted) Name() string { return "naive-lifted" }

func (naiveLifted) Protect(ctx context.Context, nl *netlist.Netlist, lib *cell.Library, opt Options) (*Protected, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The same randomization stream and target select the sink set, so
	// naive lifting protects exactly the pins randomize-correction would
	// at the same scope seed (asserted by the engine tests).
	r, err := randomize.Randomize(nl, randomizeRNG(opt), randomize.Options{TargetOER: opt.TargetOER})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sinks := correction.SortedPins(r.Protected)
	p, err := correction.BuildNaiveLifted(nl, sinks, lib, opt.correctionOptions())
	if err != nil {
		return nil, err
	}
	return &Protected{
		Design:        p.Design,
		ProtectedPins: p.ProtectedSinks(),
		Corr:          p,
		Metrics:       map[string]float64{"lifted_sinks": float64(len(p.CellOf))},
	}, nil
}

// flatDefense adapts the prior-art builders that return a plain routed
// design on the original netlist (no protected-pin filter, no correction
// cells, no metrics).
type flatDefense struct {
	name  string
	build func(*netlist.Netlist, *cell.Library, baselines.Options) (*layout.Design, error)
}

func (f flatDefense) Name() string { return f.name }

func (f flatDefense) Protect(ctx context.Context, nl *netlist.Netlist, lib *cell.Library, opt Options) (*Protected, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d, err := f.build(nl, lib, opt.baselineOptions())
	if err != nil {
		return nil, err
	}
	return &Protected{Design: d}, nil
}

// sengupta binds one of the four Sengupta strategies to a flat builder.
func sengupta(strat baselines.SenguptaStrategy) func(*netlist.Netlist, *cell.Library, baselines.Options) (*layout.Design, error) {
	return func(nl *netlist.Netlist, lib *cell.Library, opt baselines.Options) (*layout.Design, error) {
		return baselines.Sengupta(nl, lib, strat, opt)
	}
}

// pinSwapping wraps the block-pin-swapping baseline, which perturbs the
// netlist it routes; the swap count is the scheme's headline metadata.
type pinSwapping struct{}

func (pinSwapping) Name() string { return "pin-swapping" }

func (pinSwapping) Protect(ctx context.Context, nl *netlist.Netlist, lib *cell.Library, opt Options) (*Protected, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d, swaps, err := baselines.PinSwapping(nl, lib, opt.baselineOptions())
	if err != nil {
		return nil, err
	}
	return &Protected{
		Design:  d,
		Swaps:   len(swaps),
		Metrics: map[string]float64{"pin_swaps": float64(len(swaps))},
	}, nil
}
