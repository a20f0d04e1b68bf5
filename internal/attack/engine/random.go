package engine

import (
	"context"
	"math/rand"

	"splitmfg/internal/attack/proximity"
	"splitmfg/internal/layout"
	"splitmfg/internal/metrics"
)

func init() { Register(randomEngine{}) }

// randomEngine assigns every open sink fragment to a uniformly random
// candidate driver fragment. It is the sanity floor of the threat-model
// matrix: the OER/HD a defense achieves against it is what pure chance
// already delivers, so any published attacker must be compared against it
// (a defense that only matches the random baseline has not degraded the
// attacker at all).
type randomEngine struct{}

func (randomEngine) Name() string { return "random" }

func (randomEngine) Attack(ctx context.Context, d *layout.Design, sv *layout.SplitView, opt Options) (Result, error) {
	drivers := proximity.CandidateDrivers(sv)
	sinks := sv.SinkFrags()
	res := Result{
		Assignment: metrics.Assignment{},
		Metrics:    map[string]float64{"drivers": float64(len(drivers))},
	}
	if len(drivers) == 0 || len(sinks) == 0 {
		return res, ctx.Err()
	}
	// SinkFrags returns fragments in ascending index order, so one stream
	// consumed in that order is deterministic at a fixed seed. The stream
	// is derived from the scope seed by name, per the Options contract.
	rng := rand.New(rand.NewSource(DeriveSeed(opt.Seed, randomEngine{}.Name())))
	for _, sfid := range sinks {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		res.Assignment[sfid] = drivers[rng.Intn(len(drivers))]
	}
	return res, nil
}
