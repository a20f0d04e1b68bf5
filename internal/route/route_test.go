package route

import (
	"math/rand"
	"testing"
	"testing/quick"

	"splitmfg/internal/geom"
)

func testGrid() Grid {
	die := geom.Rect{Lo: geom.Point{X: 0, Y: 0}, Hi: geom.Point{X: 56000, Y: 56000}}
	return NewGrid(die, DefaultGCellNM, 10) // 20x20x10
}

func TestGridMapping(t *testing.T) {
	g := testGrid()
	if g.W != 20 || g.H != 20 {
		t.Fatalf("grid %dx%d, want 20x20", g.W, g.H)
	}
	n := g.NodeOf(geom.Point{X: 0, Y: 0}, 1)
	if n != (Node{0, 0, 1}) {
		t.Fatalf("node = %v", n)
	}
	n = g.NodeOf(geom.Point{X: 55999, Y: 55999}, 10)
	if n != (Node{19, 19, 10}) {
		t.Fatalf("node = %v", n)
	}
	// Out-of-range points clamp.
	n = g.NodeOf(geom.Point{X: -5, Y: 99999}, 42)
	if n != (Node{0, 19, 10}) {
		t.Fatalf("clamped node = %v", n)
	}
	c := g.CenterOf(Node{3, 4, 2})
	if c != (geom.Point{X: 3*2800 + 1400, Y: 4*2800 + 1400}) {
		t.Fatalf("center = %v", c)
	}
}

func TestRouteTwoPin(t *testing.T) {
	r := NewRouter(testGrid(), Options{})
	pins := []Pin{
		{Pt: geom.Point{X: 1400, Y: 1400}, Layer: 1},
		{Pt: geom.Point{X: 42000, Y: 28000}, Layer: 1},
	}
	if err := r.RouteNet(0, pins, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	rn := r.Net(0)
	wl, vias := rn.Wirelength(r.Grid)
	if wl <= 0 || vias < 2 {
		t.Fatalf("wl=%d vias=%d", wl, vias)
	}
	// Minimum wirelength is the Manhattan distance in gcells.
	a := r.Grid.NodeOf(pins[0].Pt, 1)
	b := r.Grid.NodeOf(pins[1].Pt, 1)
	minWL := int64((absInt(a.X-b.X) + absInt(a.Y-b.Y)) * r.Grid.GCell)
	if wl < minWL {
		t.Fatalf("wirelength %d below Manhattan bound %d", wl, minWL)
	}
	if wl > 2*minWL {
		t.Fatalf("wirelength %d far above Manhattan bound %d (bad routing)", wl, minWL)
	}
}

func TestRouteMultiPin(t *testing.T) {
	r := NewRouter(testGrid(), Options{})
	rng := rand.New(rand.NewSource(4))
	pins := make([]Pin, 6)
	for i := range pins {
		pins[i] = Pin{Pt: geom.Point{X: rng.Intn(56000), Y: rng.Intn(56000)}, Layer: 1}
	}
	if err := r.RouteNet(7, pins, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLiftConstraint(t *testing.T) {
	r := NewRouter(testGrid(), Options{})
	pins := []Pin{
		{Pt: geom.Point{X: 1400, Y: 1400}, Layer: 1},
		{Pt: geom.Point{X: 42000, Y: 28000}, Layer: 1},
	}
	if err := r.RouteNet(0, pins, 6); err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	// All wire segments must be on M6+; via chain must reach down to pins.
	sawWire := false
	for _, e := range r.Net(0).Edges {
		if a, _ := r.Grid.Ends(e); !r.Grid.IsVia(e) {
			sawWire = true
			if a.Z < 6 {
				t.Fatalf("wire on M%d despite lift to M6", a.Z)
			}
		}
	}
	if !sawWire {
		t.Fatal("no wire segments at all")
	}
	s := r.ComputeStats()
	// Lifting to M6 forces vias through every boundary V12..V56 at both
	// ends: at least 2 per boundary below M6.
	for z := 1; z <= 5; z++ {
		if s.Vias[z] < 2 {
			t.Fatalf("V%d%d = %d, want >= 2", z, z+1, s.Vias[z])
		}
	}
}

func TestLiftAboveTopRejected(t *testing.T) {
	r := NewRouter(testGrid(), Options{})
	pins := []Pin{{Pt: geom.Point{X: 0, Y: 0}, Layer: 1}, {Pt: geom.Point{X: 9000, Y: 0}, Layer: 1}}
	if err := r.RouteNet(0, pins, 11); err == nil {
		t.Fatal("lift above top layer should fail")
	}
}

func TestRipUpRestoresUsage(t *testing.T) {
	r := NewRouter(testGrid(), Options{})
	pins := []Pin{
		{Pt: geom.Point{X: 1400, Y: 1400}, Layer: 1},
		{Pt: geom.Point{X: 42000, Y: 28000}, Layer: 1},
	}
	if err := r.RouteNet(3, pins, 1); err != nil {
		t.Fatal(err)
	}
	if r.MaxUsage() == 0 {
		t.Fatal("routing did not record usage")
	}
	r.RipUp(3)
	if r.MaxUsage() != 0 {
		t.Fatal("rip-up left usage behind")
	}
	if r.Net(3) != nil {
		t.Fatal("net still present after rip-up")
	}
}

func TestRerouteReplaces(t *testing.T) {
	r := NewRouter(testGrid(), Options{})
	pins := []Pin{
		{Pt: geom.Point{X: 1400, Y: 1400}, Layer: 1},
		{Pt: geom.Point{X: 42000, Y: 28000}, Layer: 1},
	}
	if err := r.RouteNet(3, pins, 1); err != nil {
		t.Fatal(err)
	}
	wl1, _ := r.Net(3).Wirelength(r.Grid)
	// Re-route the same net with a lift constraint (ECO-style).
	if err := r.RouteNet(3, pins, 8); err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	wl2, vias2 := r.Net(3).Wirelength(r.Grid)
	if wl2 < wl1 {
		t.Fatalf("lifted route shorter than flat route: %d < %d", wl2, wl1)
	}
	if vias2 < 14 {
		t.Fatalf("lifted route has too few vias: %d", vias2)
	}
}

func TestCongestionSpreadsRoutes(t *testing.T) {
	// Route many parallel nets through a narrow region; capacity pressure
	// must not prevent completion and usage must stay bounded-ish.
	r := NewRouter(testGrid(), Options{Capacity: 2})
	for i := 0; i < 30; i++ {
		pins := []Pin{
			{Pt: geom.Point{X: 1400, Y: 28000}, Layer: 1},
			{Pt: geom.Point{X: 54000, Y: 28000}, Layer: 1},
		}
		if err := r.RouteNet(i, pins, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsTally(t *testing.T) {
	r := NewRouter(testGrid(), Options{})
	pins := []Pin{
		{Pt: geom.Point{X: 1400, Y: 1400}, Layer: 1},
		{Pt: geom.Point{X: 20000, Y: 1400}, Layer: 1},
	}
	if err := r.RouteNet(0, pins, 1); err != nil {
		t.Fatal(err)
	}
	s := r.ComputeStats()
	var wl int64
	for z := 1; z <= 10; z++ {
		wl += s.WirelengthByLayer[z]
	}
	if wl != s.TotalWirelength || wl <= 0 {
		t.Fatalf("per-layer wl %d != total %d", wl, s.TotalWirelength)
	}
	var vias int64
	for z := 1; z < 10; z++ {
		vias += s.Vias[z]
	}
	if vias != s.TotalVias || vias < 2 {
		t.Fatalf("vias %d / total %d", vias, s.TotalVias)
	}
}

func TestSameGCellPins(t *testing.T) {
	r := NewRouter(testGrid(), Options{})
	pins := []Pin{
		{Pt: geom.Point{X: 1000, Y: 1000}, Layer: 1},
		{Pt: geom.Point{X: 1200, Y: 1100}, Layer: 1}, // same gcell
	}
	if err := r.RouteNet(0, pins, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNoPinsRejected(t *testing.T) {
	r := NewRouter(testGrid(), Options{})
	if err := r.RouteNet(0, nil, 1); err == nil {
		t.Fatal("expected error for empty pin list")
	}
}

func TestHighLayerPins(t *testing.T) {
	// Correction cells have pins on M6/M8: routing between them must not
	// dip below M6 when lifted.
	r := NewRouter(testGrid(), Options{})
	pins := []Pin{
		{Pt: geom.Point{X: 1400, Y: 1400}, Layer: 6},
		{Pt: geom.Point{X: 30000, Y: 30000}, Layer: 6},
	}
	if err := r.RouteNet(0, pins, 6); err != nil {
		t.Fatal(err)
	}
	for _, e := range r.Net(0).Edges {
		if a, b := r.Grid.Ends(e); min(a.Z, b.Z) < 6 {
			t.Fatalf("edge {%v %v} dips below M6", a, b)
		}
	}
}

func TestPropertyRandomNetsRouteAndValidate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewRouter(testGrid(), Options{})
		for id := 0; id < 12; id++ {
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
		return r.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRipUpIsInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewRouter(testGrid(), Options{})
		// Route a background net, snapshot usage, route+ripup another,
		// usage must return to the snapshot.
		bg := []Pin{
			{Pt: geom.Point{X: 1400, Y: 1400}, Layer: 1},
			{Pt: geom.Point{X: 42000, Y: 42000}, Layer: 1},
		}
		if r.RouteNet(0, bg, 1) != nil {
			return false
		}
		snapH := append([]int16(nil), r.usageH...)
		snapV := append([]int16(nil), r.usageV...)
		pins := []Pin{
			{Pt: geom.Point{X: rng.Intn(56000), Y: rng.Intn(56000)}, Layer: 1},
			{Pt: geom.Point{X: rng.Intn(56000), Y: rng.Intn(56000)}, Layer: 1},
		}
		if r.RouteNet(1, pins, 1) != nil {
			return false
		}
		r.RipUp(1)
		for i := range snapH {
			if r.usageH[i] != snapH[i] || r.usageV[i] != snapV[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRouteTwoPinNets(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	r := NewRouter(testGrid(), Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pins := []Pin{
			{Pt: geom.Point{X: rng.Intn(56000), Y: rng.Intn(56000)}, Layer: 1},
			{Pt: geom.Point{X: rng.Intn(56000), Y: rng.Intn(56000)}, Layer: 1},
		}
		if err := r.RouteNet(i, pins, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNegotiateRerouteReducesOverflow(t *testing.T) {
	// Jam many parallel nets through the same corridor at capacity 1,
	// then negotiate: overflow must drop (usually to zero).
	r := NewRouter(testGrid(), Options{Capacity: 1})
	var jobs []Job
	for i := 0; i < 12; i++ {
		jobs = append(jobs, Job{ID: i, MinLayer: 1, Pins: []Pin{
			{Pt: geom.Point{X: 1400, Y: 28000 + (i%3)*100}, Layer: 1},
			{Pt: geom.Point{X: 54000, Y: 28000 + (i%3)*100}, Layer: 1},
		}})
	}
	// Two pins in one gcell: routed, but with no edges.
	const local = 12
	jobs = append(jobs, Job{ID: local, MinLayer: 1, Pins: []Pin{
		{Pt: geom.Point{X: 30000, Y: 10000}, Layer: 1},
		{Pt: geom.Point{X: 30100, Y: 10100}, Layer: 1},
	}})
	if err := r.RouteJobs(jobs); err != nil {
		t.Fatal(err)
	}
	before := r.ComputeStats().OverflowEdges
	r.NegotiateReroute()
	after := r.ComputeStats().OverflowEdges
	if after > before {
		t.Fatalf("negotiation increased overflow: %d -> %d", before, after)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every stored route holds exactly its edges: a per-edge append
	// would leave spare capacity on most nets without changing a byte of
	// output, so only this check catches it.
	for _, id := range r.SortedNetIDs() {
		if e := r.Net(id).Edges; cap(e) != len(e) {
			t.Fatalf("net %d stores %d edges with capacity %d", id, len(e), cap(e))
		}
	}
	if e := r.Net(local).Edges; e != nil {
		t.Fatalf("edgeless net %d has non-nil Edges %v", local, e)
	}
}

func TestNegotiatePreservesLiftConstraints(t *testing.T) {
	r := NewRouter(testGrid(), Options{Capacity: 1})
	for i := 0; i < 8; i++ {
		pins := []Pin{
			{Pt: geom.Point{X: 1400, Y: 28000}, Layer: 1},
			{Pt: geom.Point{X: 54000, Y: 28000}, Layer: 1},
		}
		lift := 1
		if i%2 == 0 {
			lift = 6
		}
		if err := r.RouteNet(i, pins, lift); err != nil {
			t.Fatal(err)
		}
	}
	r.NegotiateReroute()
	for i := 0; i < 8; i += 2 {
		if rn := r.Net(i); rn.MinLayer != 6 {
			t.Fatalf("net %d lost its lift constraint after negotiation", i)
		}
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

// sharedEdgeNets routes one two-pin net per ID, each between the same
// two horizontally adjacent gcells at the middle of testGrid, and checks
// that each takes the cheapest route: one M3 segment, the edge they all
// share. The caller's capacity must leave room for them; lowering
// Opt.Capacity afterwards overflows exactly that edge.
func sharedEdgeNets(t *testing.T, r *Router, ids ...int) {
	t.Helper()
	g := r.Grid.GCell
	pins := []Pin{
		{Pt: geom.Point{X: 9*g + g/2, Y: 10*g + g/2}, Layer: 1},
		{Pt: geom.Point{X: 10*g + g/2, Y: 10*g + g/2}, Layer: 1},
	}
	shared := Edge{A: r.Grid.Index(Node{X: 9, Y: 10, Z: 3}), B: r.Grid.Index(Node{X: 10, Y: 10, Z: 3})}
	for _, id := range ids {
		_, before := r.wireUsage(shared)
		if err := r.RouteNet(id, pins, 1); err != nil {
			t.Fatal(err)
		}
		if _, u := r.wireUsage(shared); u != before+1 {
			t.Fatalf("setup: net %d avoided the shared M3 edge", id)
		}
	}
}

// TestNegotiateMovesOnlyExcess: k+e nets share one edge of capacity k,
// and a detour through a neighboring row costs two short M2 segments,
// less than the first pass's escalated overflow penalty. Negotiation must
// clear the overflow in one pass by moving exactly e nets — the lowest
// IDs, since the nets tie on overflowed edges and length — and leave the
// other k routes untouched (the old rule re-routed all k+e).
func TestNegotiateMovesOnlyExcess(t *testing.T) {
	const k, e = 2, 2
	r := NewRouter(testGrid(), Options{Capacity: k + e})
	sharedEdgeNets(t, r, 0, 1, 2, 3)
	r.Opt.Capacity = k
	if got := r.ComputeStats().OverflowEdges; got != 1 {
		t.Fatalf("setup: %d overflowed edges, want 1", got)
	}
	before := make([]*RoutedNet, k+e)
	for id := range before {
		before[id] = r.Net(id)
	}
	if passes := r.NegotiateReroute(); passes != 1 {
		t.Fatalf("negotiation ran %d passes, want 1", passes)
	}
	if got := r.ComputeStats().OverflowEdges; got != 0 {
		t.Fatalf("%d overflowed edges after negotiation, want 0", got)
	}
	for id, old := range before {
		if moved, want := r.Net(id) != old, id < e; moved != want {
			t.Errorf("net %d re-routed = %v, want %v", id, moved, want)
		}
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestNegotiateSelectsMostOverflowedPerEdge: three nets cross one edge
// that holds two. Net 0 is long, so its one overflowed edge is a small
// share of its route (ov/(len(Edges)+1)); nets 1 and 2 are one segment
// long and tie. The selection must skip net 0 despite its lower ID and
// break the tie by ID: net 1 alone moves.
func TestNegotiateSelectsMostOverflowedPerEdge(t *testing.T) {
	r := NewRouter(testGrid(), Options{Capacity: 3})
	g := r.Grid.GCell
	long := []Pin{
		{Pt: geom.Point{X: 5*g + g/2, Y: 10*g + g/2}, Layer: 1},
		{Pt: geom.Point{X: 14*g + g/2, Y: 10*g + g/2}, Layer: 1},
	}
	if err := r.RouteNet(0, long, 1); err != nil {
		t.Fatal(err)
	}
	sharedEdgeNets(t, r, 1, 2)
	r.Opt.Capacity = 2
	if got := r.ComputeStats().OverflowEdges; got != 1 {
		t.Fatalf("setup: %d overflowed edges, want 1", got)
	}
	ids := r.SortedNetIDs()
	sel, over := r.selectExcess(ids)
	if over != 1 {
		t.Fatalf("selection counted %d overflowed edges, want 1", over)
	}
	var moved []int
	for i, id := range ids {
		if sel[i] {
			moved = append(moved, id)
		}
	}
	if len(moved) != 1 || moved[0] != 1 {
		t.Fatalf("selected nets %v, want [1]", moved)
	}
}

// TestNegotiateStopsWhenStalled: on a 2x1 grid whose only horizontal
// layer is M3, nets between the two gcells have no alternative route, so
// no pass can clear the overflow; negotiation must stop after the first
// pass instead of running to the pass cap.
func TestNegotiateStopsWhenStalled(t *testing.T) {
	die := geom.Rect{Hi: geom.Point{X: 2 * DefaultGCellNM, Y: DefaultGCellNM}}
	r := NewRouter(NewGrid(die, DefaultGCellNM, 3), Options{Capacity: 1})
	pins := []Pin{
		{Pt: geom.Point{X: DefaultGCellNM / 2, Y: DefaultGCellNM / 2}, Layer: 1},
		{Pt: geom.Point{X: 3 * DefaultGCellNM / 2, Y: DefaultGCellNM / 2}, Layer: 1},
	}
	for id := 0; id < 4; id++ {
		if err := r.RouteNet(id, pins, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.ComputeStats().OverflowEdges; got != 1 {
		t.Fatalf("setup: %d overflowed edges, want 1", got)
	}
	if passes := r.NegotiateReroute(); passes != 1 {
		t.Fatalf("negotiation ran %d passes on an unrelievable jam, want 1", passes)
	}
	if got := r.ComputeStats().OverflowEdges; got != 1 {
		t.Fatalf("%d overflowed edges after negotiation, want 1", got)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateNamesLowestFailedNet: with several failed nets, Validate
// must name the lowest ID every time, not whichever net map iteration
// happens to reach first.
func TestValidateNamesLowestFailedNet(t *testing.T) {
	r := NewRouter(testGrid(), Options{})
	g := r.Grid.GCell
	// M10 is vertical-only: horizontally separated pins cannot route.
	bad := []Pin{
		{Pt: geom.Point{X: 2 * g, Y: 2 * g}, Layer: 1},
		{Pt: geom.Point{X: 12 * g, Y: 2 * g}, Layer: 1},
	}
	for _, id := range []int{9, 4} {
		if err := r.RouteNet(id, bad, 10); err == nil {
			t.Fatalf("net %d: expected routing failure", id)
		}
	}
	for i := 0; i < 20; i++ {
		err := r.Validate()
		if err == nil || err.Error() != "route: net 4 marked failed" {
			t.Fatalf("Validate = %v, want net 4 named", err)
		}
	}
}
