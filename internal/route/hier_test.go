package route

import (
	"errors"
	"strings"
	"testing"

	"splitmfg/internal/geom"
)

func TestParseStrategy(t *testing.T) {
	cases := []struct {
		in   string
		want Strategy
		err  bool
	}{
		{"", StrategyAuto, false},
		{"auto", StrategyAuto, false},
		{"flat", StrategyFlat, false},
		{"hier", StrategyHier, false},
		{"HIER", "", true},
		{"fast", "", true},
	}
	for _, c := range cases {
		got, err := ParseStrategy(c.in)
		if c.err != (err != nil) || got != c.want {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v, err=%v", c.in, got, err, c.want, c.err)
		}
	}
}

// TestResolvedStrategyAuto: auto must resolve flat below the die-area
// threshold (every ISCAS'85 benchmark, so existing goldens stay
// byte-identical) and hier above it (superblue-class dies).
func TestResolvedStrategyAuto(t *testing.T) {
	mk := func(wNM, hNM int, s Strategy) *Router {
		die := geom.Rect{Lo: geom.Point{}, Hi: geom.Point{X: wNM, Y: hNM}}
		return NewRouter(NewGrid(die, 0, 10), Options{Strategy: s})
	}
	// c7552 at 70% utilization: the largest ISCAS die.
	if got := mk(69350, 71400, StrategyAuto).ResolvedStrategy(); got != StrategyFlat {
		t.Fatalf("auto on c7552-sized die resolved %v, want flat", got)
	}
	// superblue18 at SUPERBLUE_SCALE=200: the smallest CI superblue die.
	if got := mk(75240, 77000, StrategyAuto).ResolvedStrategy(); got != StrategyHier {
		t.Fatalf("auto on superblue18/200-sized die resolved %v, want hier", got)
	}
	// Explicit options win regardless of area.
	if got := mk(75240, 77000, StrategyFlat).ResolvedStrategy(); got != StrategyFlat {
		t.Fatalf("explicit flat resolved %v", got)
	}
	if got := mk(69350, 71400, StrategyHier).ResolvedStrategy(); got != StrategyHier {
		t.Fatalf("explicit hier resolved %v", got)
	}
}

// TestRouteJobsHierRerouteInBatch: batched re-routing of existing nets
// under hier (old edges masked through the overlay, rip-up on commit)
// must replace the old routes: the result validates, and ripping every
// net up afterwards leaves no usage behind.
func TestRouteJobsHierRerouteInBatch(t *testing.T) {
	g := bigGrid()
	r := NewRouter(g, Options{Strategy: StrategyHier})
	routeNets(t, r, scatteredJobs(60, g, 21))
	if err := r.RouteJobs(scatteredJobs(60, g, 22)); err != nil { // same IDs 0..59, different pins
		t.Fatal(err)
	}
	if hs := r.Hier(); hs.CorridorNets == 0 {
		t.Fatalf("hier batch planned no corridors: %+v", hs)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	ripUpAllIsZero(t, r)
}

// TestHierCorridorFallback: a corridor that cannot be refined must fall
// back to the flat search, be counted in FlatFallbacks, and leave the net
// routed. With soft capacities the coarse pass never produces an
// unroutable corridor organically, so the test injects one through the
// Router's corridorHook: the victim net's corridor is truncated to a
// single tile, which cannot contain a path between its distant pins.
func TestHierCorridorFallback(t *testing.T) {
	g := bigGrid()
	jobs := scatteredJobs(60, g, 9)
	victim := -1
	for i, j := range jobs {
		if len(j.Pins) == 2 && j.MinLayer == 1 &&
			absInt(j.Pins[0].Pt.X-j.Pins[1].Pt.X)/g.GCell > 3*tileGCells {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no suitable victim net in workload")
	}
	r := NewRouter(g, Options{Strategy: StrategyHier})
	r.corridorHook = func(corrs []corridor) {
		if corrs[victim].n == 0 {
			t.Fatalf("victim %d has no corridor", victim)
		}
		corrs[victim].tiles = corrs[victim].tiles[:1]
	}
	if err := r.RouteJobs(jobs); err != nil {
		t.Fatal(err)
	}
	if fb := r.Hier().FlatFallbacks; fb == 0 {
		t.Fatal("hier run recorded no flat fallback")
	}
	if rn := r.Net(jobs[victim].ID); rn == nil || rn.Failed || len(rn.Edges) == 0 {
		t.Fatalf("victim net not routed by fallback: %+v", r.Net(jobs[victim].ID))
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestHierUnroutableMatchesSerial: a genuinely unroutable net (M10 lift,
// horizontally separated pins) fails its corridor, falls back flat, and
// fails there too, exactly as under the flat strategy: the error names
// the job, and the net keeps its Failed marker with no edges and no
// usage.
func TestHierUnroutableMatchesSerial(t *testing.T) {
	g := bigGrid()
	jobs := scatteredJobs(50, g, 9)
	bad := Job{ID: 999, Pins: []Pin{
		{Pt: geom.Point{X: 100 * g.GCell, Y: 200 * g.GCell}, Layer: 1},
		{Pt: geom.Point{X: 130 * g.GCell, Y: 200 * g.GCell}, Layer: 1},
	}, MinLayer: 10}
	jobs = append(jobs[:25:25], append([]Job{bad}, jobs[25:]...)...)

	r := NewRouter(g, Options{Strategy: StrategyHier})
	err := r.RouteJobs(jobs)
	var je *JobError
	if !errors.As(err, &je) || je.Index != 25 || je.ID != 999 {
		t.Fatalf("error does not identify the unroutable job: %v", err)
	}
	if rn := r.Net(999); rn == nil || !rn.Failed || len(rn.Edges) != 0 {
		t.Fatalf("failed net state: %+v", r.Net(999))
	}
	usageMatchesNets(t, r)
}

// TestCorridorCoversPins: every corridor must contain the tiles of all
// of its net's pins, and its region must cover the whole tile set —
// otherwise refinement could be cut off from a pin it has to reach.
func TestCorridorCoversPins(t *testing.T) {
	g := bigGrid()
	jobs := scatteredJobs(200, g, 13)
	r := NewRouter(g, Options{Strategy: StrategyHier})
	pl := newCoarsePlanner(r)
	corrs := pl.plan(jobs)
	if len(corrs) != len(jobs) {
		t.Fatalf("corridor count %d != job count %d", len(corrs), len(jobs))
	}
	for i, j := range jobs {
		if len(j.Pins) <= 1 {
			if corrs[i].n != 0 {
				t.Fatalf("single-pin job %d got a corridor", i)
			}
			continue
		}
		member := map[int32]bool{}
		for _, ti := range corrs[i].tiles {
			member[ti] = true
			tx, ty := int(ti)%pl.tw, int(ti)/pl.tw
			reg := corrs[i].reg
			if tx*tileGCells > reg.hiX || ty*tileGCells > reg.hiY ||
				tx*tileGCells+tileGCells-1 < reg.loX || ty*tileGCells+tileGCells-1 < reg.loY {
				t.Fatalf("job %d corridor tile (%d,%d) outside its region %+v", i, tx, ty, reg)
			}
		}
		for pi, p := range j.Pins {
			n := g.NodeOf(p.Pt, p.Layer)
			if !member[pl.tileOf(n.X, n.Y)] {
				t.Fatalf("job %d pin %d tile not in corridor", i, pi)
			}
		}
	}
}

// TestUsageOverflowPanicContext: the int16 saturation guard must name
// the net, direction, layer, and gcell so a full-scale failure is
// diagnosable from the panic message alone.
func TestUsageOverflowPanicContext(t *testing.T) {
	r := NewRouter(testGrid(), Options{})
	e := Edge{A: r.Grid.Index(Node{X: 5, Y: 7, Z: 3}), B: r.Grid.Index(Node{X: 6, Y: 7, Z: 3})}
	r.usageH[e.A] = 32767
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("overflowing addUsage did not panic")
		}
		msg, ok := rec.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", rec)
		}
		for _, want := range []string{"net 42", "horizontal", "M3", "(5,7)", "32768", "overflows int16"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic message %q missing %q", msg, want)
			}
		}
	}()
	r.addUsage(e, 1, 42)
}

// TestHierFailedFreshRouteKeepsMarker: a fresh hier route that fails
// (not via corridor exhaustion) must leave the same Failed marker the
// flat path leaves — no edges, no usage.
func TestHierFailedFreshRouteKeepsMarker(t *testing.T) {
	g := bigGrid()
	r := NewRouter(g, Options{Strategy: StrategyHier})
	bad := Job{ID: 7, Pins: []Pin{
		{Pt: geom.Point{X: 100 * g.GCell, Y: 200 * g.GCell}, Layer: 1},
		{Pt: geom.Point{X: 130 * g.GCell, Y: 200 * g.GCell}, Layer: 1},
	}, MinLayer: 10}
	if err := r.RouteJobs([]Job{bad}); err == nil {
		t.Fatal("unroutable job succeeded")
	}
	if rn := r.Net(7); rn == nil || !rn.Failed || len(rn.Edges) != 0 {
		t.Fatalf("failed net state: %+v", r.Net(7))
	}
	if r.MaxUsage() != 0 {
		t.Fatalf("failed net left usage behind: %d", r.MaxUsage())
	}
	var je *JobError
	if err := r.RouteJobs([]Job{bad}); !errors.As(err, &je) {
		t.Fatalf("re-route of failed net: %v", err)
	}
}

// TestRouteJobsRejectsBadJob: a job RouteNet would reject (no pins, or a
// lift above the top layer) fails the batch with RouteNet's error under
// both strategies, before anything is planned or routed.
func TestRouteJobsRejectsBadJob(t *testing.T) {
	g := bigGrid()
	for _, bad := range []struct {
		job  Job
		want string
	}{
		{Job{ID: 5000, MinLayer: 1}, "route: net 5000 has no pins"},
		{Job{ID: 5001, Pins: scatteredJobs(1, g, 3)[0].Pins, MinLayer: 11}, "route: net 5001 lift layer M11 above top layer M10"},
	} {
		jobs := scatteredJobs(60, g, 9)
		jobs[30] = bad.job
		for _, s := range []Strategy{StrategyFlat, StrategyHier} {
			r := NewRouter(g, Options{Strategy: s})
			err := r.RouteJobs(jobs)
			var je *JobError
			if !errors.As(err, &je) || je.Index != 30 || je.ID != bad.job.ID || err.Error() != bad.want {
				t.Fatalf("%s: err = %v, want job 30's %q", s, err, bad.want)
			}
			if n := r.NumNets(); n != 0 || r.MaxUsage() != 0 || r.Hier().CorridorNets != 0 {
				t.Fatalf("%s: rejected batch left %d nets, max usage %d, %d corridors",
					s, n, r.MaxUsage(), r.Hier().CorridorNets)
			}
		}
	}
}

// TestNegotiateKeepsNetCorridors: congestion negotiation re-routes each
// net inside the corridor it was routed in. A hier batch at capacity 1
// routes one net flat after its corridor is cut to a single tile (as in
// TestHierCorridorFallback), and a second net is re-routed flat with
// RouteNet. After negotiation every net still holding a corridor lies
// inside its tiles, the two flat nets hold none, and negotiation ran
// corridor-confined re-routes.
func TestNegotiateKeepsNetCorridors(t *testing.T) {
	g := bigGrid()
	jobs := scatteredJobs(400, g, 7)
	victim := -1
	for i, j := range jobs {
		if len(j.Pins) == 2 && j.MinLayer == 1 &&
			absInt(j.Pins[0].Pt.X-j.Pins[1].Pt.X)/g.GCell > 3*tileGCells {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no suitable victim net in workload")
	}
	eco := jobs[(victim+1)%len(jobs)]
	r := NewRouter(g, Options{Capacity: 1, Strategy: StrategyHier})
	r.corridorHook = func(corrs []corridor) {
		corrs[victim].tiles = corrs[victim].tiles[:1]
	}
	if err := r.RouteJobs(jobs); err != nil {
		t.Fatal(err)
	}
	if err := r.RouteNet(eco.ID, eco.Pins, eco.MinLayer); err != nil {
		t.Fatal(err)
	}
	withCorridor := func() int {
		n := 0
		for _, id := range r.SortedNetIDs() {
			if r.Net(id).corr != nil {
				n++
			}
		}
		return n
	}
	had, before := withCorridor(), r.Hier()
	if r.NegotiateReroute() == 0 {
		t.Fatal("negotiation re-routed nothing")
	}
	after := r.Hier()
	if after.NegoCorridor <= before.NegoCorridor {
		t.Fatalf("NegoCorridor %d -> %d: no corridor-confined re-route", before.NegoCorridor, after.NegoCorridor)
	}
	for _, id := range []int{jobs[victim].ID, eco.ID} {
		if rn := r.Net(id); rn.corr != nil {
			t.Fatalf("flat-routed net %d holds a corridor", id)
		}
	}
	// A net loses its corridor in negotiation only by falling back flat.
	if kept, lost := withCorridor(), after.FlatFallbacks-before.FlatFallbacks; kept != had-lost {
		t.Fatalf("%d nets keep a corridor after negotiation, want %d (%d before, %d flat fallbacks)", kept, had-lost, had, lost)
	}
	for _, id := range r.SortedNetIDs() {
		rn := r.Net(id)
		if rn.corr == nil {
			continue
		}
		in := map[int32]bool{}
		for _, ti := range rn.corr.tiles {
			in[ti] = true
		}
		for _, e := range rn.Edges {
			a, b := g.Ends(e)
			for _, n := range []Node{a, b} {
				if !in[r.planner.tileOf(n.X, n.Y)] {
					t.Fatalf("net %d edge end %v outside its corridor", id, n)
				}
			}
		}
	}
}
