package flow

import (
	"context"
	"testing"

	"splitmfg/internal/bench"
	"splitmfg/internal/cell"
	"splitmfg/internal/layout"
	"splitmfg/internal/place"
	"splitmfg/internal/route"
)

// TestEvaluateSecurityAllocs pins the allocation count of a full security
// evaluation (attack + recover + simulate at one split layer) on c880.
// Parallelism is forced to 1 because AllocsPerRun counts allocations on
// every goroutine, so a worker pool would make the number racy. The budget
// is loose: it exists to catch a structural regression (a per-candidate or
// per-net map returning), which costs tens of thousands of allocations.
func TestEvaluateSecurityAllocs(t *testing.T) {
	nl, err := bench.ISCAS85("c880")
	if err != nil {
		t.Fatal(err)
	}
	lib := cell.NewNangate45Like()
	masters, err := lib.Bind(nl)
	if err != nil {
		t.Fatal(err)
	}
	p, err := place.Place(nl, masters, place.Options{UtilPercent: 70, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := layout.NewDesign(nl, masters, p, route.Options{})
	if err := d.RouteAll(nil); err != nil {
		t.Fatal(err)
	}
	opt := Options{SplitLayers: []int{3}, Seed: 1, PatternWords: 16, Parallelism: 1}
	if _, err := EvaluateSecurity(context.Background(), d, nl, nil, opt); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := EvaluateSecurity(context.Background(), d, nl, nil, opt); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 15000
	if allocs > budget {
		t.Fatalf("EvaluateSecurity allocates %.0f/op on c880, budget %d — per-call scratch crept back in", allocs, budget)
	}
	t.Logf("EvaluateSecurity c880/M3: %.0f allocs/op (budget %d)", allocs, budget)
}
