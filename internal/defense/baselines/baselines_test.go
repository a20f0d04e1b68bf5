package baselines

import (
	"testing"

	"splitmfg/internal/bench"
	"splitmfg/internal/cell"
	"splitmfg/internal/layout"
	"splitmfg/internal/netlist"
)

func c432(t *testing.T) (*netlist.Netlist, *cell.Library) {
	t.Helper()
	nl, err := bench.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	return nl, cell.NewNangate45Like()
}

func checkDesign(t *testing.T, d *layout.Design, nl *netlist.Netlist) {
	t.Helper()
	if err := d.Router.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := d.Placement.CheckLegal(); err != nil {
		t.Fatal(err)
	}
}

func TestPlacementPerturbationBuilds(t *testing.T) {
	nl, lib := c432(t)
	d, err := PlacementPerturbation(nl, lib, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkDesign(t, d, nl)
	// Functionality untouched.
	if !d.Netlist.SameStructure(nl) {
		t.Fatal("placement perturbation must not change the netlist")
	}
}

func TestPlacementPerturbationMovesCells(t *testing.T) {
	nl, lib := c432(t)
	base, err := PlacementPerturbation(nl, lib, Options{Seed: 1, Fraction: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	pert, err := PlacementPerturbation(nl, lib, Options{Seed: 1, Fraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for g := range pert.Placement.Cells {
		if pert.Placement.Cells[g].Loc != base.Placement.Cells[g].Loc {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("perturbation moved nothing")
	}
}

func TestSenguptaStrategies(t *testing.T) {
	nl, lib := c432(t)
	for _, s := range []SenguptaStrategy{Random, GColor, GType1, GType2} {
		d, err := Sengupta(nl, lib, s, Options{Seed: 2})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		checkDesign(t, d, nl)
		if !d.Netlist.SameStructure(nl) {
			t.Fatalf("%v changed the netlist", s)
		}
	}
	if _, err := Sengupta(nl, lib, SenguptaStrategy(9), Options{Seed: 2}); err == nil {
		t.Fatal("invalid strategy accepted")
	}
}

func TestGColorNeighborsShareColor(t *testing.T) {
	nl, _ := c432(t)
	colors := greedyColor(nl)
	for _, g := range nl.Gates {
		for _, nb := range nl.FanoutGates(g.ID) {
			if nb != g.ID && colors[nb] == colors[g.ID] {
				t.Fatalf("connected gates %d,%d share color %d", g.ID, nb, colors[g.ID])
			}
		}
	}
}

func TestPinSwappingPerturbsInterconnectOnly(t *testing.T) {
	nl, lib := c432(t)
	d, swaps, err := PinSwapping(nl, lib, Options{Seed: 4, Fraction: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	checkDesign(t, d, nl)
	if len(swaps) == 0 {
		t.Fatal("no block-pin swaps performed")
	}
	// The routed netlist differs from the original (it is perturbed) but
	// has identical size.
	if d.Netlist.SameStructure(nl) {
		t.Fatal("pin swapping changed nothing")
	}
	if d.Netlist.NumGates() != nl.NumGates() {
		t.Fatal("pin swapping altered gate count")
	}
	if d.Netlist.HasCombLoop() {
		t.Fatal("pin swapping created a loop")
	}
}

func TestRoutingPerturbationLifts(t *testing.T) {
	nl, lib := c432(t)
	d, err := RoutingPerturbation(nl, lib, Options{Seed: 5, Fraction: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	checkDesign(t, d, nl)
	lifted := 0
	for _, id := range d.Router.SortedNetIDs() {
		if d.Router.Net(id).MinLayer >= 4 {
			lifted++
		}
	}
	if lifted == 0 {
		t.Fatal("no nets detoured upward")
	}
}

func TestSynergisticElevates(t *testing.T) {
	nl, lib := c432(t)
	d, err := Synergistic(nl, lib, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	checkDesign(t, d, nl)
	s := d.Router.ComputeStats()
	if s.Vias[5] == 0 {
		t.Fatal("synergistic scheme produced no V56 vias")
	}
}

func TestRoutingBlockagePushesWiresUp(t *testing.T) {
	nl, lib := c432(t)
	plain, err := PlacementPerturbation(nl, lib, Options{Seed: 7, Fraction: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := RoutingBlockage(nl, lib, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sp := plain.Router.ComputeStats()
	sb := blocked.Router.ComputeStats()
	upPlain := sp.Vias[4] + sp.Vias[5] + sp.Vias[6]
	upBlocked := sb.Vias[4] + sb.Vias[5] + sb.Vias[6]
	if upBlocked <= upPlain {
		t.Fatalf("blockage did not push wires up: V45+V56+V67 %d vs %d", upBlocked, upPlain)
	}
}

func TestClusterBlocks(t *testing.T) {
	nl, _ := c432(t)
	blocks := clusterBlocks(nl, 24)
	sizes := map[int]int{}
	for _, b := range blocks {
		if b < 0 {
			t.Fatal("unassigned gate")
		}
		sizes[b]++
	}
	if len(sizes) < 2 {
		t.Fatal("expected multiple blocks")
	}
	for b, n := range sizes {
		if n > 24*3 {
			t.Fatalf("block %d oversized: %d", b, n)
		}
	}
}
