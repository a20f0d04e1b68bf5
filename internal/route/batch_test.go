package route

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"splitmfg/internal/geom"
)

// bigGrid is a superblue-scale fabric: 400x400 gcells, large enough for
// the hierarchical strategy's corridors to matter.
func bigGrid() Grid {
	die := geom.Rect{Lo: geom.Point{}, Hi: geom.Point{X: 400 * DefaultGCellNM, Y: 400 * DefaultGCellNM}}
	return NewGrid(die, DefaultGCellNM, 10)
}

// scatteredJobs builds n mostly-local nets spread over the die — the
// workload shape a placed netlist produces — plus some long connections
// and multi-pin trees.
func scatteredJobs(n int, g Grid, seed int64) []Job {
	rng := rand.New(rand.NewSource(seed))
	dieW := g.Die.W()
	jobs := make([]Job, n)
	for i := range jobs {
		a := geom.Point{X: rng.Intn(dieW), Y: rng.Intn(dieW)}
		np := 2
		if i%7 == 0 {
			np = 3 + rng.Intn(3)
		}
		pins := make([]Pin, np)
		pins[0] = Pin{Pt: a, Layer: 1}
		for k := 1; k < np; k++ {
			span := 6 * g.GCell
			if i%11 == 0 {
				span = 60 * g.GCell // occasional global net
			}
			pins[k] = Pin{Pt: geom.Point{
				X: geom.Clamp(a.X+rng.Intn(2*span)-span, 0, dieW-1),
				Y: geom.Clamp(a.Y+rng.Intn(2*span)-span, 0, dieW-1),
			}, Layer: 1}
		}
		lift := 1
		if i%13 == 0 {
			lift = 6
		}
		jobs[i] = Job{ID: i, Pins: pins, MinLayer: lift}
	}
	return jobs
}

// stateEqual compares two routers' complete observable state: every net's
// edge list and flags, plus the raw usage arrays.
func stateEqual(t *testing.T, want, got *Router) {
	t.Helper()
	if len(want.nets) != len(got.nets) {
		t.Fatalf("net count differs: want %d, got %d", len(want.nets), len(got.nets))
	}
	for id, wn := range want.nets {
		gn := got.nets[id]
		if gn == nil {
			t.Fatalf("net %d missing", id)
		}
		if wn.Failed != gn.Failed || wn.MinLayer != gn.MinLayer {
			t.Fatalf("net %d flags differ: want %+v, got %+v", id, wn, gn)
		}
		if len(wn.Edges) != len(gn.Edges) {
			t.Fatalf("net %d edge count differs: want %d, got %d", id, len(wn.Edges), len(gn.Edges))
		}
		for i := range wn.Edges {
			if wn.Edges[i] != gn.Edges[i] {
				t.Fatalf("net %d edge %d differs: want %v, got %v", id, i, wn.Edges[i], gn.Edges[i])
			}
		}
	}
	for i := range want.usageH {
		if want.usageH[i] != got.usageH[i] || want.usageV[i] != got.usageV[i] {
			t.Fatalf("usage differs at index %d: H %d/%d V %d/%d",
				i, want.usageH[i], got.usageH[i], want.usageV[i], got.usageV[i])
		}
	}
}

// usageMatchesNets checks that the usage arrays equal a recount over the
// routed nets' edges: no failed or replaced route leaked usage.
func usageMatchesNets(t *testing.T, r *Router) {
	t.Helper()
	recount := NewRouter(r.Grid, r.Opt)
	for _, rn := range r.nets {
		for _, e := range rn.Edges {
			recount.addUsage(e, 1, rn.ID)
		}
	}
	for i := range r.usageH {
		if r.usageH[i] != recount.usageH[i] || r.usageV[i] != recount.usageV[i] {
			t.Fatalf("usage inconsistent with routed edges at index %d", i)
		}
	}
}

// ripUpAllIsZero rips every routed net up and checks that both usage
// arrays return to zero.
func ripUpAllIsZero(t *testing.T, r *Router) {
	t.Helper()
	for _, id := range r.SortedNetIDs() {
		r.RipUp(id)
	}
	if r.NumNets() != 0 || r.MaxUsage() != 0 {
		t.Fatalf("after ripping every net up: %d nets, max usage %d", r.NumNets(), r.MaxUsage())
	}
	for i := range r.usageH {
		if r.usageH[i] != 0 || r.usageV[i] != 0 {
			t.Fatalf("usage left at index %d: H %d V %d", i, r.usageH[i], r.usageV[i])
		}
	}
}

// routeNets routes the jobs one RouteNet call at a time: the sequence
// RouteJobs must reproduce under the flat strategy.
func routeNets(t *testing.T, r *Router, jobs []Job) {
	t.Helper()
	for _, j := range jobs {
		if err := r.RouteNet(j.ID, j.Pins, j.MinLayer); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRouteJobsRerouteInBatch: a batch may re-route nets that already have
// routes (the ECO path). The old edges must be replaced: the result
// validates, and ripping every net up afterwards leaves no usage behind.
func TestRouteJobsRerouteInBatch(t *testing.T) {
	g := bigGrid()
	r := NewRouter(g, Options{Strategy: StrategyFlat})
	routeNets(t, r, scatteredJobs(60, g, 21))
	if err := r.RouteJobs(scatteredJobs(60, g, 22)); err != nil { // same IDs 0..59, different pins
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	ripUpAllIsZero(t, r)
}

// TestRouteJobsUnroutableFallsBackSerial: a net that cannot route at all
// (vertical-only lift layer, horizontally separated pins) fails the batch
// with a *JobError naming it. The jobs before it stay committed, nothing
// after it routes, and the failed net keeps its Failed marker with no
// edges and no usage.
func TestRouteJobsUnroutableFallsBackSerial(t *testing.T) {
	g := bigGrid()
	jobs := scatteredJobs(50, g, 9)
	// M10 routes vertically only, so a lift-to-M10 net with pins in
	// different columns has no legal path.
	bad := Job{ID: 999, Pins: []Pin{
		{Pt: geom.Point{X: 100 * g.GCell, Y: 200 * g.GCell}, Layer: 1},
		{Pt: geom.Point{X: 130 * g.GCell, Y: 200 * g.GCell}, Layer: 1},
	}, MinLayer: 10}
	jobs = append(jobs[:25:25], append([]Job{bad}, jobs[25:]...)...)

	r := NewRouter(g, Options{Strategy: StrategyFlat})
	err := r.RouteJobs(jobs)
	var je *JobError
	if !errors.As(err, &je) || je.Index != 25 || je.ID != 999 {
		t.Fatalf("error does not identify the unroutable job: %v", err)
	}
	if n := r.NumNets(); n != 26 {
		t.Fatalf("%d nets after the failed batch, want the 25 before it and its marker", n)
	}
	// The failed net leaks no usage and keeps no partial edges.
	if rn := r.Net(999); rn == nil || !rn.Failed || len(rn.Edges) != 0 {
		t.Fatalf("failed net state: %+v", r.Net(999))
	}
	usageMatchesNets(t, r)
}

// TestRouteFailureRipsUpPartial: when a later sink of a multi-pin net
// cannot route, the edges already committed for earlier sinks must be
// discarded — the failed net may not occupy capacity (the old behavior
// left partial trees counted in usage and leaking into ComputeStats).
func TestRouteFailureRipsUpPartial(t *testing.T) {
	r := NewRouter(testGrid(), Options{})
	x := 5 * r.Grid.GCell
	pins := []Pin{
		{Pt: geom.Point{X: x, Y: 2 * r.Grid.GCell}, Layer: 1},
		{Pt: geom.Point{X: x, Y: 8 * r.Grid.GCell}, Layer: 1},                   // routable: same column, M10 is vertical
		{Pt: geom.Point{X: x + 10*r.Grid.GCell, Y: 2 * r.Grid.GCell}, Layer: 1}, // unroutable on M10
	}
	if err := r.RouteNet(1, pins, 10); err == nil {
		t.Fatal("expected routing failure for horizontally separated M10 pins")
	}
	if r.MaxUsage() != 0 {
		t.Fatalf("failed net left %d usage behind", r.MaxUsage())
	}
	rn := r.Net(1)
	if rn == nil || !rn.Failed || len(rn.Edges) != 0 {
		t.Fatalf("failed net state: %+v", rn)
	}
	s := r.ComputeStats()
	if s.TotalWirelength != 0 || s.TotalVias != 0 {
		t.Fatalf("failed net leaked into stats: %+v", s)
	}
}

// TestRerouteFailureKeepsOldRoute: re-routing an existing net under an
// unsatisfiable constraint must leave the old route completely intact —
// edges, usage, and flags (the old behavior ripped the old route up and
// left a Failed partial replacement).
func TestRerouteFailureKeepsOldRoute(t *testing.T) {
	r := NewRouter(testGrid(), Options{})
	pins := []Pin{
		{Pt: geom.Point{X: 1400, Y: 1400}, Layer: 1},
		{Pt: geom.Point{X: 42000, Y: 28000}, Layer: 1},
	}
	if err := r.RouteNet(3, pins, 1); err != nil {
		t.Fatal(err)
	}
	edges := append([]Edge(nil), r.Net(3).Edges...)
	snapH := append([]int16(nil), r.usageH...)
	snapV := append([]int16(nil), r.usageV...)

	// M10 is vertical-only: these pins differ in X, so the re-route fails.
	if err := r.RouteNet(3, pins, 10); err == nil {
		t.Fatal("expected re-route failure")
	}
	rn := r.Net(3)
	if rn == nil || rn.Failed {
		t.Fatalf("old route lost or marked failed: %+v", rn)
	}
	if rn.MinLayer != 1 || len(rn.Edges) != len(edges) {
		t.Fatalf("old route mutated: MinLayer %d, %d edges (want 1, %d)", rn.MinLayer, len(rn.Edges), len(edges))
	}
	for i := range edges {
		if rn.Edges[i] != edges[i] {
			t.Fatalf("old route edge %d changed: %v != %v", i, rn.Edges[i], edges[i])
		}
	}
	for i := range snapH {
		if r.usageH[i] != snapH[i] || r.usageV[i] != snapV[i] {
			t.Fatal("usage changed after failed re-route")
		}
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestNegotiateRerouteRestoresHistoryCost: the negotiation loop escalates
// the congestion weight internally but must restore the base value on
// return — the old behavior left up to 1.8^iters of compounded weight
// behind, silently distorting every later route on the same router.
func TestNegotiateRerouteRestoresHistoryCost(t *testing.T) {
	r := NewRouter(testGrid(), Options{Capacity: 1})
	for i := 0; i < 12; i++ {
		pins := []Pin{
			{Pt: geom.Point{X: 1400, Y: 28000}, Layer: 1},
			{Pt: geom.Point{X: 54000, Y: 28000}, Layer: 1},
		}
		if err := r.RouteNet(i, pins, 1); err != nil {
			t.Fatal(err)
		}
	}
	if r.ComputeStats().OverflowEdges == 0 {
		t.Fatal("setup produced no overflow; negotiation has nothing to escalate")
	}
	before := r.history
	r.NegotiateReroute()
	if r.history != before {
		t.Fatalf("history weight leaked: %v before, %v after negotiation", before, r.history)
	}
}

// TestNegotiateConservesRoutes: negotiation may move routes around but
// must never lose one — every net keeps a valid tree and the usage arrays
// must equal a recount over the surviving edges (the old failure path
// double-freed the replaced route and stranded a partial one).
func TestNegotiateConservesRoutes(t *testing.T) {
	r := NewRouter(testGrid(), Options{Capacity: 1})
	for i := 0; i < 16; i++ {
		pins := []Pin{
			{Pt: geom.Point{X: 1400, Y: 28000 + (i%2)*100}, Layer: 1},
			{Pt: geom.Point{X: 54000, Y: 28000 + (i%2)*100}, Layer: 1},
		}
		if err := r.RouteNet(i, pins, 1); err != nil {
			t.Fatal(err)
		}
	}
	r.NegotiateReroute()
	if r.NumNets() != 16 {
		t.Fatalf("negotiation lost nets: %d of 16 remain", r.NumNets())
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	usageMatchesNets(t, r)
}

// TestPropertyRipUpAllReturnsToZero: routing any set of nets and ripping
// every one of them up must return both usage arrays to all-zero — the
// rip-up invariant that guards against partial-tree and double-count
// leaks.
func TestPropertyRipUpAllReturnsToZero(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewRouter(testGrid(), Options{})
		for id := 0; id < 10; id++ {
			np := 2 + rng.Intn(4)
			pins := make([]Pin, np)
			for i := range pins {
				pins[i] = Pin{Pt: geom.Point{X: rng.Intn(56000), Y: rng.Intn(56000)}, Layer: 1}
			}
			min := 1
			if rng.Intn(3) == 0 {
				min = 6
			}
			if err := r.RouteNet(id, pins, min); err != nil {
				return false
			}
		}
		for id := 0; id < 10; id++ {
			r.RipUp(id)
		}
		for i := range r.usageH {
			if r.usageH[i] != 0 || r.usageV[i] != 0 {
				return false
			}
		}
		return r.NumNets() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestRouteJobsSinglePinRipUpSerializes: a single-pin job that replaces
// an existing multi-edge route performs no search, but its commit rips
// the old route up, and the next job of the batch must see that freed
// capacity. The batch ends exactly where the same RouteNet sequence does.
func TestRouteJobsSinglePinRipUpSerializes(t *testing.T) {
	die := geom.Rect{Lo: geom.Point{}, Hi: geom.Point{X: 200 * DefaultGCellNM, Y: 200 * DefaultGCellNM}}
	g := NewGrid(die, DefaultGCellNM, 10)
	y := 100 * g.GCell
	corridor := []Pin{
		{Pt: geom.Point{X: 10 * g.GCell, Y: y}, Layer: 1},
		{Pt: geom.Point{X: 190 * g.GCell, Y: y}, Layer: 1},
	}
	jobs := []Job{
		// ECO: net 0 collapses to a single pin, ripping up its corridor
		// route (usage -1 along the whole row).
		{ID: 0, Pins: corridor[:1], MinLayer: 1},
		// A new net through the same corridor: whether it sees the
		// rip-up decides its congestion detour.
		{ID: 10, Pins: corridor, MinLayer: 1},
	}
	build := func(batch bool) *Router {
		r := NewRouter(g, Options{Capacity: 1, Strategy: StrategyFlat})
		for id := 0; id < 3; id++ {
			if err := r.RouteNet(id, corridor, 1); err != nil {
				t.Fatal(err)
			}
		}
		if !batch {
			routeNets(t, r, jobs)
		} else if err := r.RouteJobs(jobs); err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := build(true)
	if rn := r.Net(0); len(rn.Edges) != 0 {
		t.Fatalf("single-pin re-route kept %d edges", len(rn.Edges))
	}
	stateEqual(t, build(false), r)
}

// TestRouteJobsDuplicateIDsSerialize: a batch repeating an ID routes the
// later job over the route the earlier one committed, exactly as the same
// RouteNet sequence does.
func TestRouteJobsDuplicateIDsSerialize(t *testing.T) {
	g := bigGrid()
	jobs := scatteredJobs(40, g, 31)
	dup := jobs[5]
	dup.Pins = scatteredJobs(1, g, 32)[0].Pins
	jobs = append(jobs, dup) // same ID as jobs[5], different pins

	seq := NewRouter(g, Options{Strategy: StrategyFlat})
	routeNets(t, seq, jobs)
	batch := NewRouter(g, Options{Strategy: StrategyFlat})
	if err := batch.RouteJobs(jobs); err != nil {
		t.Fatal(err)
	}
	if rn := batch.Net(dup.ID); rn.Pins[0] != dup.Pins[0] {
		t.Fatalf("net %d keeps the earlier job's pins", dup.ID)
	}
	stateEqual(t, seq, batch)
	usageMatchesNets(t, batch)
}
