package correction

import (
	"context"
	"math/rand"
	"testing"

	"splitmfg/internal/bench"
	"splitmfg/internal/cell"
	"splitmfg/internal/defense/randomize"
	"splitmfg/internal/layout"
	"splitmfg/internal/netlist"
	"splitmfg/internal/sim"
)

func buildC432Protected(t testing.TB, seed int64) (*netlist.Netlist, *Protected) {
	t.Helper()
	nl, err := bench.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	r, err := randomize.Randomize(context.Background(), nl, seed, randomize.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lib := cell.NewNangate45Like()
	p, err := BuildProtected(nl, r, lib, Options{LiftLayer: 6, UtilPercent: 70, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return nl, p
}

func TestProtectedBuilds(t *testing.T) {
	_, p := buildC432Protected(t, 1)
	if err := p.Design.Router.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.CellOf) == 0 || len(p.RestoreRoutes) != 2*len(p.Swaps) {
		t.Fatalf("cells=%d restoreRoutes=%d swaps=%d", len(p.CellOf), len(p.RestoreRoutes), len(p.Swaps))
	}
}

func TestRestoredNetlistEqualsOriginal(t *testing.T) {
	// The central correctness property of the whole scheme: tracing the
	// physical design's signal flow through the correction cells after
	// BEOL restoration must yield exactly the original netlist.
	nl, p := buildC432Protected(t, 2)
	rec, err := p.RestoredNetlist()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.SameStructure(nl) {
		t.Fatal("restored netlist != original (BEOL restoration broken)")
	}
	// And functionally (belt and suspenders).
	rng := rand.New(rand.NewSource(7))
	eq, err := sim.Equivalent(nl, rec, rng, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("restored netlist functionally differs")
	}
}

func TestErroneousFEOLDiffers(t *testing.T) {
	nl, p := buildC432Protected(t, 3)
	rng := rand.New(rand.NewSource(8))
	oer, err := sim.OER(nl, p.Erroneous, rng, 64)
	if err != nil {
		t.Fatal(err)
	}
	if oer < 0.9 {
		t.Fatalf("erroneous netlist OER=%.3f, want ≈1", oer)
	}
}

func TestLiftedNetsRespectConstraint(t *testing.T) {
	_, p := buildC432Protected(t, 4)
	protected := p.ProtectedSinks()
	// Every protected net's trunk, stub, and restore wires carry MinLayer 6.
	for pin := range protected {
		eNet := p.Erroneous.Gates[pin.Gate].Fanin[pin.Pin]
		if rn := p.Design.Router.Net(eNet); rn == nil || rn.MinLayer != 6 {
			t.Fatalf("trunk of net %d not lifted", eNet)
		}
		sr := p.StubRoute[pin]
		if rn := p.Design.Router.Net(sr); rn == nil || rn.MinLayer != 6 {
			t.Fatalf("stub %d not lifted", sr)
		}
	}
	for _, rid := range p.RestoreRoutes {
		rn := p.Design.Router.Net(rid)
		if rn == nil || rn.MinLayer != 6 {
			t.Fatalf("restore route %d not lifted", rid)
		}
	}
}

func TestRestoreWiresInvisibleInFEOL(t *testing.T) {
	_, p := buildC432Protected(t, 5)
	sv, err := p.Design.Split(5)
	if err != nil {
		t.Fatal(err)
	}
	restore := map[int]bool{}
	for _, rid := range p.RestoreRoutes {
		restore[rid] = true
	}
	for _, f := range sv.Frags {
		if restore[f.RouteID] && len(f.Nodes) > 0 {
			t.Fatalf("restoration wire %d leaves FEOL fragments", f.RouteID)
		}
	}
	for _, vp := range sv.VPins {
		if restore[vp.RouteID] {
			t.Fatalf("restoration wire %d has a vpin at M5", vp.RouteID)
		}
	}
}

func TestProtectedSinksAreDriverlessFragments(t *testing.T) {
	_, p := buildC432Protected(t, 6)
	sv, err := p.Design.Split(4)
	if err != nil {
		t.Fatal(err)
	}
	protected := p.ProtectedSinks()
	// Each protected sink's stub must appear as a pure-sink fragment (its
	// "driver" is a BEOL-pin correction cell the FEOL fab cannot see).
	found := 0
	for _, fid := range sv.SinkFrags() {
		for _, sp := range sv.Frags[fid].SinkPins() {
			if sp.Role == layout.RoleSink && protected[sp.Ref] {
				found++
			}
		}
	}
	if found < len(protected)/2 {
		t.Fatalf("only %d of %d protected sinks appear as open fragments", found, len(protected))
	}
}

func TestNaiveLiftingPreservesFunction(t *testing.T) {
	nl, err := bench.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	r, err := randomize.Randomize(context.Background(), nl, 9, randomize.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lib := cell.NewNangate45Like()
	p, err := BuildNaiveLifted(nl, r.Protected, lib, Options{LiftLayer: 6, UtilPercent: 70, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Design.Router.Validate(); err != nil {
		t.Fatal(err)
	}
	// Naive lifting never changes the netlist.
	if !p.Erroneous.SameStructure(nl) {
		t.Fatal("naive lifting altered the netlist")
	}
	if len(p.RestoreRoutes) != 0 {
		t.Fatal("naive lifting should need no restoration wires")
	}
}

// TestCorrectionCellsLegal checks the cells of both lifting schemes, built
// on the same sinks: legal, inside the die, and one per lifted sink.
func TestCorrectionCellsLegal(t *testing.T) {
	nl, prot := buildC432Protected(t, 10)
	naive, err := BuildNaiveLifted(nl, prot.ProtectedSinks(), cell.NewNangate45Like(),
		Options{LiftLayer: 6, UtilPercent: 70, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    *Protected
	}{{"proposed", prot}, {"naive-lifted", naive}} {
		d := tc.p.Design
		if err := d.CheckExtrasLegal(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(d.Extras) != len(tc.p.CellOf) {
			t.Fatalf("%s: %d cells for %d lifted sinks", tc.name, len(d.Extras), len(tc.p.CellOf))
		}
		// Zero area overhead: extras live inside the same die outline.
		die := d.Placement.Die
		for _, e := range d.Extras {
			if e.Loc.X < die.Lo.X || e.Loc.X+e.Master.WidthNM > die.Hi.X ||
				e.Loc.Y < die.Lo.Y || e.Loc.Y+cell.RowHeight > die.Hi.Y {
				t.Fatalf("%s: cell %d at %v outside die %v", tc.name, e.ID, e.Loc, die)
			}
		}
	}
}

func TestBuildErrors(t *testing.T) {
	nl, _ := bench.ISCAS85("c432")
	lib := cell.NewNangate45Like()
	if _, err := BuildProtected(nl, nil, lib, Options{}); err == nil {
		t.Error("nil randomization accepted")
	}
	other, _ := bench.ISCAS85("c880")
	r, _ := randomize.Randomize(context.Background(), other, 1, randomize.Options{MaxSwaps: 2})
	if _, err := BuildProtected(nl, r, lib, Options{}); err == nil {
		t.Error("mismatched netlists accepted")
	}
}

func TestProtectedM8LiftLayer(t *testing.T) {
	nl, err := bench.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	r, err := randomize.Randomize(context.Background(), nl, 11, randomize.Options{MaxSwaps: 6, TargetOER: 2})
	if err != nil {
		t.Fatal(err)
	}
	lib := cell.NewNangate45Like()
	p, err := BuildProtected(nl, r, lib, Options{LiftLayer: 8, UtilPercent: 70, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Design.Router.Validate(); err != nil {
		t.Fatal(err)
	}
	// Restoration wires must live at M8+.
	for _, rid := range p.RestoreRoutes {
		for _, e := range p.Design.Router.Net(rid).Edges {
			a, b := p.Design.Grid.Ends(e)
			if min(a.Z, b.Z) < 8 {
				t.Fatalf("restore wire %d has edge below M8: {%v %v}", rid, a, b)
			}
		}
	}
	rec, err := p.RestoredNetlist()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.SameStructure(nl) {
		t.Fatal("M8 restoration broken")
	}
}

func TestStubCarriesTrueNetTag(t *testing.T) {
	// Each Z->sink stub must be tagged with the ORIGINAL net feeding that
	// sink, so restored-PPA analysis attributes its RC correctly.
	nl, p := buildC432Protected(t, 12)
	for pin, rid := range p.StubRoute {
		want := nl.Gates[pin.Gate].Fanin[pin.Pin] // original binding
		if got := p.Design.NetOf[rid]; got != want {
			t.Fatalf("stub for %v tagged net %d, want %d", pin, got, want)
		}
	}
}
