package route

import "fmt"

// Strategy selects how batched routing (RouteJobs) explores the grid.
//
// The flat strategy routes every net with a single-level A* whose search
// region is the net's bounding box expanded by maxDetour gcells — simple
// and exact, but the high-fanout tail's regions grow with the die, so
// per-net cost scales with die area. The hier strategy first runs a
// serial coarse pass on a tile grid (coarse.go) that assigns every
// multi-pin net a corridor of tiles, then confines the fine A* to that
// corridor — collapsing the tail's search regions from die-proportional
// to corridor-proportional. auto picks per design by physical die area.
//
// For a fixed strategy the determinism contract is unchanged: results are
// byte-identical at every parallelism level.
type Strategy string

// Routing strategies. The zero value resolves as StrategyAuto.
const (
	StrategyAuto Strategy = "auto"
	StrategyFlat Strategy = "flat"
	StrategyHier Strategy = "hier"
)

// ParseStrategy parses a strategy name; the empty string means auto.
func ParseStrategy(s string) (Strategy, error) {
	switch Strategy(s) {
	case "":
		return StrategyAuto, nil
	case StrategyAuto, StrategyFlat, StrategyHier:
		return Strategy(s), nil
	}
	return "", fmt.Errorf("route: unknown strategy %q (want flat, hier, or auto)", s)
}

// hierAutoDieAreaNM2 is the die area (nm^2) above which StrategyAuto
// resolves to hier. The threshold sits between the largest ISCAS'85 die
// (c7552 at 70% utilization: ~4.95e9 nm^2) and the smallest superblue
// bench configuration CI exercises (superblue18 at SUPERBLUE_SCALE=200:
// ~5.79e9 nm^2), so every existing ISCAS golden keeps the flat router's
// byte-identical output while full-scale superblue runs get the
// hierarchical one by default.
const hierAutoDieAreaNM2 = 5_200_000_000

// ResolvedStrategy returns the concrete strategy (flat or hier) batched
// routing uses on this router's grid: an explicit flat/hier option wins,
// and auto resolves by die area against hierAutoDieAreaNM2.
func (r *Router) ResolvedStrategy() Strategy {
	switch r.Opt.Strategy {
	case StrategyFlat, StrategyHier:
		return r.Opt.Strategy
	}
	if int64(r.Grid.Die.W())*int64(r.Grid.Die.H()) >= hierAutoDieAreaNM2 {
		return StrategyHier
	}
	return StrategyFlat
}

// HierStats reports what the hierarchical strategy did on this router.
// Zero-valued (except Strategy) when the resolved strategy is flat.
type HierStats struct {
	Strategy      Strategy // resolved strategy (flat or hier)
	TileW, TileH  int      // coarse tile grid dimensions
	CorridorNets  int      // multi-pin nets planned into corridors
	FlatFallbacks int      // corridor refinements that fell back to flat search
	BatchEscapes  int      // parallel batches that rolled back to the serial schedule
	NegoCorridor  int      // negotiation re-routes that ran corridor-confined
}

// Hier returns the accumulated hierarchical-routing statistics.
func (r *Router) Hier() HierStats {
	s := r.hierStats
	s.Strategy = r.ResolvedStrategy()
	if r.planner != nil {
		s.TileW, s.TileH = r.planner.tw, r.planner.th
	}
	return s
}
