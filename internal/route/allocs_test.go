package route

import (
	"testing"

	"splitmfg/internal/geom"
)

// TestRouteNetAllocs pins the steady-state allocation count of an
// incremental RouteNet call (the ECO path BEOL restoration hammers). The
// budget is deliberately loose — it only needs to catch a reintroduced
// per-call map or per-search scratch slice, which costs hundreds of
// allocations, not single digits.
func TestRouteNetAllocs(t *testing.T) {
	die := geom.Rect{Lo: geom.Point{X: 0, Y: 0}, Hi: geom.Point{X: 140_000, Y: 140_000}}
	grid := NewGrid(die, 0, 6)
	r := NewRouter(grid, Options{})
	pins := []Pin{
		{Pt: geom.Point{X: 5_000, Y: 5_000}, Layer: 1},
		{Pt: geom.Point{X: 120_000, Y: 30_000}, Layer: 1},
		{Pt: geom.Point{X: 60_000, Y: 110_000}, Layer: 1},
		{Pt: geom.Point{X: 20_000, Y: 90_000}, Layer: 1},
		{Pt: geom.Point{X: 100_000, Y: 100_000}, Layer: 1},
	}
	// Warm the worker scratch so the measurement reflects steady state.
	if err := r.RouteNet(1, pins, 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := r.RouteNet(1, pins, 1); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 40
	if allocs > budget {
		t.Fatalf("RouteNet allocates %.0f/op, budget %d — per-call scratch crept back in", allocs, budget)
	}
	t.Logf("RouteNet: %.0f allocs/op (budget %d)", allocs, budget)
}

// TestCoarsePlanAllocs pins the coarse pass at ~0 allocs/op steady
// state: after one warm-up batch the planner's arena, corridor list, A*
// scratch, and priority queue are all reused, so re-planning the same
// workload must not allocate (epoch-stamped scratch per the PR 7
// conventions — hotalloc enforces the same property statically).
func TestCoarsePlanAllocs(t *testing.T) {
	g := bigGrid()
	jobs := scatteredJobs(200, g, 99)
	r := NewRouter(g, Options{Strategy: StrategyHier})
	pl := newCoarsePlanner(r)
	pl.plan(jobs) // warm arena and scratch to capacity
	allocs := testing.AllocsPerRun(20, func() {
		pl.plan(jobs)
	})
	const budget = 0
	if allocs > budget {
		t.Fatalf("coarse plan allocates %.0f/op, budget %d — per-call scratch crept back in", allocs, budget)
	}
	t.Logf("coarse plan: %.0f allocs/op (budget %d)", allocs, budget)
}

// TestHierRefineAllocs pins corridor-confined serial refinement: the
// corridor mask is epoch-stamped worker state, so re-routing a batch
// under hier must stay within the flat path's per-net budget.
func TestHierRefineAllocs(t *testing.T) {
	g := bigGrid()
	jobs := scatteredJobs(40, g, 17)
	r := NewRouter(g, Options{Strategy: StrategyHier})
	if err := r.RouteJobs(jobs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := r.RouteJobs(jobs); err != nil {
			t.Fatal(err)
		}
	})
	// Re-routing 40 nets: each commit clones pins and builds a RoutedNet,
	// like the flat path; the corridor machinery itself adds nothing.
	budget := float64(len(jobs) * 40)
	if allocs > budget {
		t.Fatalf("hier RouteJobs allocates %.0f/op for %d jobs, budget %.0f", allocs, len(jobs), budget)
	}
	t.Logf("hier RouteJobs: %.0f allocs/op for %d jobs (budget %.0f)", allocs, len(jobs), budget)
}
