package layout

import (
	"testing"

	"splitmfg/internal/bench"
	"splitmfg/internal/cell"
	"splitmfg/internal/geom"
	"splitmfg/internal/netlist"
	"splitmfg/internal/place"
	"splitmfg/internal/route"
)

func buildDesign(t testing.TB, name string) *Design {
	t.Helper()
	nl, err := bench.ISCAS85(name)
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
	d := NewDesign(nl, masters, p, route.Options{})
	if err := d.RouteAll(nil); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRouteAllValid(t *testing.T) {
	d := buildDesign(t, "c432")
	if err := d.Router.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every multi-terminal net must be routed.
	for _, n := range d.Netlist.Nets {
		if n.FanoutCount() == 0 {
			continue
		}
		if d.Router.Net(n.ID) == nil {
			t.Fatalf("net %q unrouted", n.Name)
		}
	}
}

func TestSplitBasics(t *testing.T) {
	d := buildDesign(t, "c432")
	sv, err := d.Split(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sv.VPins) == 0 {
		t.Fatal("no vpins after M3 split — all routing below M4?")
	}
	if len(sv.Frags) == 0 {
		t.Fatal("no fragments")
	}
	// Every vpin references a valid fragment of the same route.
	for _, vp := range sv.VPins {
		if vp.Frag < 0 || vp.Frag >= len(sv.Frags) {
			t.Fatalf("vpin %d bad frag %d", vp.ID, vp.Frag)
		}
		if sv.Frags[vp.Frag].RouteID != vp.RouteID {
			t.Fatalf("vpin %d frag route mismatch", vp.ID)
		}
		if vp.Node.Z != 3 {
			t.Fatalf("vpin node at M%d, want M3", vp.Node.Z)
		}
	}
	// Every fragment's pins belong to its route.
	for _, f := range sv.Frags {
		want := d.Pins[f.RouteID]
		for _, p := range f.Pins {
			found := false
			for _, w := range want {
				if w == p {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("fragment %d contains foreign pin", f.ID)
			}
		}
	}
}

func TestSplitLayerRange(t *testing.T) {
	d := buildDesign(t, "c432")
	if _, err := d.Split(0); err == nil {
		t.Error("split M0 should fail")
	}
	if _, err := d.Split(10); err == nil {
		t.Error("split at top layer should fail")
	}
}

func TestFragmentsPartitionPins(t *testing.T) {
	d := buildDesign(t, "c880")
	sv, err := d.Split(4)
	if err != nil {
		t.Fatal(err)
	}
	// Each routed net's M1 pins must appear in exactly one fragment each.
	counts := map[int]int{} // route ID -> pins seen in fragments
	for _, f := range sv.Frags {
		counts[f.RouteID] += len(f.Pins)
	}
	for id, pins := range d.Pins {
		feol := 0
		for _, p := range pins {
			if p.Layer <= 4 {
				feol++
			}
		}
		if counts[id] != feol {
			t.Fatalf("route %d: %d pins in fragments, want %d", id, counts[id], feol)
		}
	}
}

func TestDriverSinkFragsDisjoint(t *testing.T) {
	d := buildDesign(t, "c880")
	sv, err := d.Split(3)
	if err != nil {
		t.Fatal(err)
	}
	drv := map[int]bool{}
	for _, f := range sv.DriverFrags() {
		drv[f] = true
	}
	for _, f := range sv.SinkFrags() {
		if drv[f] {
			t.Fatalf("fragment %d both driver and pure-sink", f)
		}
	}
}

func TestSplitHigherLayerFewerVPins(t *testing.T) {
	d := buildDesign(t, "c880")
	sv3, err := d.Split(3)
	if err != nil {
		t.Fatal(err)
	}
	sv6, err := d.Split(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(sv6.VPins) >= len(sv3.VPins) {
		t.Fatalf("expected fewer vpins at M6 split: M3=%d M6=%d", len(sv3.VPins), len(sv6.VPins))
	}
}

func TestDanglingDirections(t *testing.T) {
	d := buildDesign(t, "c432")
	sv, err := d.Split(3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[Direction]int{}
	for _, vp := range sv.VPins {
		seen[vp.Dir]++
	}
	// M3 is a horizontal layer, so directed vpins must point E or W only.
	if seen[DirNorth] > 0 || seen[DirSouth] > 0 {
		t.Fatalf("N/S dangling wires on horizontal layer M3: %v", seen)
	}
	if seen[DirEast]+seen[DirWest] == 0 {
		t.Fatalf("no directional dangling wires at all: %v", seen)
	}
}

func TestExtrasLegalization(t *testing.T) {
	d := buildDesign(t, "c432")
	lib := cell.NewNangate45Like()
	corr, err := lib.Correction(6)
	if err != nil {
		t.Fatal(err)
	}
	// Drop many extras onto the same spot; legalization must separate them.
	for i := 0; i < 20; i++ {
		d.AddExtra(corr, geom.Point{X: 5000, Y: 5000})
	}
	if d.CheckExtrasLegal() == nil {
		t.Fatal("overlapping extras not detected")
	}
	d.LegalizeExtras()
	if err := d.CheckExtrasLegal(); err != nil {
		t.Fatal(err)
	}
	// All extras stay inside the die.
	for _, e := range d.Extras {
		if e.Loc.X < d.Placement.Die.Lo.X || e.Loc.X+e.Master.WidthNM > d.Placement.Die.Hi.X {
			t.Fatalf("extra %d outside die x", e.ID)
		}
	}
}

func TestTaggedNetPins(t *testing.T) {
	d := buildDesign(t, "c432")
	for _, n := range d.Netlist.Nets {
		pins := d.TaggedNetPins(n.ID)
		if len(pins) != 1+n.FanoutCount() {
			t.Fatalf("net %q: %d tagged pins", n.Name, len(pins))
		}
		if n.IsPI() && pins[0].Role != RolePI {
			t.Fatal("PI net source must be RolePI")
		}
		if !n.IsPI() && (pins[0].Role != RoleDriver || pins[0].Gate != n.Driver) {
			t.Fatal("net source must be tagged driver")
		}
	}
}

func TestVPinOnFragmentBoundaryNode(t *testing.T) {
	d := buildDesign(t, "c432")
	sv, err := d.Split(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, vp := range sv.VPins {
		f := sv.Frags[vp.Frag]
		found := false
		for _, n := range f.Nodes {
			if n == vp.Node {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("vpin %d node %v not in its fragment", vp.ID, vp.Node)
		}
	}
}

func TestSyntheticEntityRouting(t *testing.T) {
	// Route a BEOL-only wire between two high-layer terminals, as the
	// restoration step does between correction cells.
	nl := netlist.New("tiny")
	a := nl.AddPI("a")
	g := nl.AddGate("g", netlist.Buf, a)
	nl.AddPO("y", nl.Gates[g].Out)
	lib := cell.NewNangate45Like()
	masters, _ := lib.Bind(nl)
	p, err := place.Place(nl, masters, place.Options{UtilPercent: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDesign(nl, masters, p, route.Options{})
	pins := []TaggedPin{
		{Pin: route.Pin{Pt: p.Die.Lo, Layer: 8}, Role: RoleCorrOut, Gate: 0, PO: -1},
		{Pin: route.Pin{Pt: p.Die.Center(), Layer: 8}, Role: RoleCorrIn, Gate: 1, PO: -1},
	}
	if err := d.RouteEntities([]EntityJob{{RouteID: 1000, NetID: -1, Pins: pins, Lift: 8}}); err != nil {
		t.Fatal(err)
	}
	sv, err := d.Split(6)
	if err != nil {
		t.Fatal(err)
	}
	// A BEOL-only wire must contribute no FEOL fragments with nodes.
	for _, f := range sv.Frags {
		if f.RouteID == 1000 && len(f.Nodes) > 0 {
			for _, n := range f.Nodes {
				if n.Z <= 6 {
					t.Fatalf("BEOL wire has FEOL node %v", n)
				}
			}
		}
	}
}

func TestSplitPartitionsFEOLEdges(t *testing.T) {
	// Property: for every routed entity, the FEOL wire/via edges are
	// exactly covered by the fragments' node sets (no edge spans two
	// fragments, none is orphaned).
	d := buildDesign(t, "c880")
	for _, layer := range []int{3, 5} {
		sv, err := d.Split(layer)
		if err != nil {
			t.Fatal(err)
		}
		type key struct {
			route int
			node  route.Node
		}
		nodeFrag := map[key]int{}
		for _, f := range sv.Frags {
			for _, n := range f.Nodes {
				k := key{f.RouteID, n}
				if prev, ok := nodeFrag[k]; ok && prev != f.ID {
					t.Fatalf("route %d node %v in fragments %d and %d", f.RouteID, n, prev, f.ID)
				}
				nodeFrag[k] = f.ID
			}
		}
		for _, id := range d.Router.SortedNetIDs() {
			for _, e := range d.Router.Net(id).Edges {
				a, b := d.Grid.Ends(e)
				if a.Z <= layer && b.Z <= layer {
					fa, oka := nodeFrag[key{id, a}]
					fb, okb := nodeFrag[key{id, b}]
					if !oka || !okb {
						t.Fatalf("FEOL edge {%v %v} not covered by fragments", a, b)
					}
					if fa != fb {
						t.Fatalf("FEOL edge {%v %v} spans fragments %d/%d", a, b, fa, fb)
					}
				}
			}
		}
	}
}

func TestDefaultLiftBands(t *testing.T) {
	if DefaultLift(0) != 1 || DefaultLift(59) != 1 {
		t.Fatal("short/medium nets must stay unconstrained")
	}
	if DefaultLift(60) != 4 || DefaultLift(1000) != 4 {
		t.Fatal("very long nets promote to M4")
	}
}
