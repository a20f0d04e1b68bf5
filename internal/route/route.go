// Package route is the global-routing substrate standing in for Cadence
// Innovus' router. It routes nets over a 3-D grid of gcells with ten metal
// layers (M1..M10), alternating preferred directions, via costs, soft
// congestion-aware capacities, and — crucial for the paper's flow —
// per-net minimum-layer constraints that implement wire lifting: a lifted
// net may only climb vertically below its minimum layer, forcing its trunk
// wiring into the BEOL.
//
// The router reports exactly the quantities the paper's evaluation needs:
// per-layer wirelength (Fig. 5), per-boundary via counts V12..V910
// (Tables 2 and 6), and the routed topology from which the layout package
// derives FEOL fragments, vpins, and dangling-wire directions.
//
// Routing is incremental (RouteNet/RipUp, the ECO mode the BEOL
// restoration uses) or batched (RouteJobs): a batch is partitioned into
// deterministic waves of spatially disjoint nets that route concurrently
// on worker-local scratch and commit in serial order, producing
// byte-identical results at every parallelism level — see batch.go.
package route

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"splitmfg/internal/geom"
)

// DefaultGCellNM is the default gcell pitch (two row heights).
const DefaultGCellNM = 2800

// maxDetour is how many gcells a search region extends past the bounding
// box of the tree and its target (the retry extends four times as far).
const maxDetour = 12

// Negotiation stops after maxNegotiatePasses passes, or after the first
// pass that clears less than stallPercent of the overflowed edges it
// started with (see NegotiateReroute).
const (
	maxNegotiatePasses = 10
	stallPercent       = 5
)

// Node is a grid vertex: gcell coordinates plus layer (1-based).
type Node struct {
	X, Y, Z int
}

// Edge is one routed grid edge between two adjacent nodes, held as their
// node indices (Grid.Index) in path order: A is the node the search came
// from, B the node it reached. It is a wire segment when both ends share
// a layer and a via otherwise (Grid.IsVia); Grid.Ends decodes it. The
// size matters: a routed design keeps every edge of every net live.
type Edge struct {
	A, B int32
}

// Pin is a routing terminal: a die location plus the metal layer the pin
// shape lives on (1 for standard cells, 6/8 for correction cells).
type Pin struct {
	Pt    geom.Point
	Layer int
}

// Grid describes the routing fabric.
type Grid struct {
	W, H   int // gcells in x and y
	Layers int // topmost metal layer (M1..Layers)
	GCell  int // gcell pitch in nm
	Die    geom.Rect
}

// NewGrid builds a grid covering the die with the given pitch and layers.
func NewGrid(die geom.Rect, gcell, layers int) Grid {
	if gcell <= 0 {
		gcell = DefaultGCellNM
	}
	w := (die.W() + gcell - 1) / gcell
	h := (die.H() + gcell - 1) / gcell
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	return Grid{W: w, H: h, Layers: layers, GCell: gcell, Die: die}
}

// NodeOf maps a die point and layer to its grid node.
func (g Grid) NodeOf(p geom.Point, layer int) Node {
	return Node{
		X: geom.Clamp((p.X-g.Die.Lo.X)/g.GCell, 0, g.W-1),
		Y: geom.Clamp((p.Y-g.Die.Lo.Y)/g.GCell, 0, g.H-1),
		Z: geom.Clamp(layer, 1, g.Layers),
	}
}

// Index returns a node's index, (Z·H + Y)·W + X: the position the
// router's per-node arrays keep it at and the form Edge stores.
func (g Grid) Index(n Node) int32 {
	return int32((n.Z*g.H+n.Y)*g.W + n.X)
}

// NodeAt decodes a node index with two uint32 divisions (indices and grid
// extents are non-negative and below 2^31) instead of an int div/mod
// chain: the 32-bit divide is several times cheaper on amd64, and the
// router's A* decodes one index per pop.
func (g Grid) NodeAt(i int32) Node {
	u, w, h := uint32(i), uint32(g.W), uint32(g.H)
	q := u / w // z*h + y
	z := q / h
	return Node{X: int(u - q*w), Y: int(q - z*h), Z: int(z)}
}

// LayerEnd returns one past the largest index of a node on layer z: a
// node lies on layer z or below exactly when its index is below it.
func (g Grid) LayerEnd(z int) int32 {
	return int32((z + 1) * g.W * g.H)
}

// Ends decodes an edge's two nodes, in path order.
func (g Grid) Ends(e Edge) (Node, Node) {
	return g.NodeAt(e.A), g.NodeAt(e.B)
}

// IsVia reports whether the edge crosses layers. Vertically adjacent
// nodes sit W·H indices apart and wire neighbours 1 (along x) or W
// (along y), which is less than W·H on every grid with a wire: a grid
// one gcell wide has no x neighbours and one a gcell tall no y
// neighbours.
func (g Grid) IsVia(e Edge) bool {
	d, wh := e.B-e.A, int32(g.W*g.H)
	return d == wh || d == -wh
}

// wireCell returns where a wire edge's usage is kept: the index of its
// lower end, which is the smaller index since both ends share a layer,
// and whether it runs horizontally (usageH, ends one index apart) or
// vertically (usageV, ends W apart). On a grid one gcell wide the ends
// of a vertical wire are also one index apart, but no wire there can
// run horizontally.
func (g Grid) wireCell(e Edge) (i int32, horizontal bool) {
	i, d := e.A, e.B-e.A
	if d < 0 {
		i, d = e.B, -d
	}
	return i, d != int32(g.W)
}

// CenterOf maps a grid node back to the die coordinates of its center.
func (g Grid) CenterOf(n Node) geom.Point {
	return geom.Point{
		X: g.Die.Lo.X + n.X*g.GCell + g.GCell/2,
		Y: g.Die.Lo.Y + n.Y*g.GCell + g.GCell/2,
	}
}

// Horizontal reports whether layer z routes horizontally (odd layers) or
// vertically (even layers).
func Horizontal(z int) bool { return z%2 == 1 }

// Options tunes the router.
type Options struct {
	Capacity int // tracks per gcell edge per layer; 0 = derived from the gcell pitch (see NewRouter)

	// Strategy selects flat or hierarchical batched routing (see
	// strategy.go); the zero value is StrategyAuto, which resolves by die
	// area. Incremental RouteNet calls (the ECO path) always route flat —
	// they re-route single nets whose neighborhoods already exist.
	Strategy Strategy

	// Parallelism is the worker count for batched routing (RouteJobs):
	// 0 uses GOMAXPROCS, 1 forces serial execution. Results are
	// byte-identical at every level. Incremental RouteNet calls are always
	// serial regardless of this setting.
	Parallelism int

	// OnWave, when non-nil, is called after each committed multi-net wave
	// of a parallel batch with the 1-based wave number, the total wave
	// count, the number of nets the wave routed, and its wall-clock
	// duration. Waves that route a single net are silent (they are the
	// serial portions of the schedule), as are fully serial batches
	// (Parallelism 1, degenerate partitions, or the escape fallback).
	OnWave func(wave, waves, nets int, elapsed time.Duration)
}

func (o Options) withDefaults() Options {
	if o.Strategy == "" {
		o.Strategy = StrategyAuto
	}
	return o
}

// RoutedNet is the routed tree of one net.
type RoutedNet struct {
	ID       int
	Pins     []Pin
	Edges    []Edge
	MinLayer int // the lift constraint the net was routed with (1 = none)
	Failed   bool

	// corr is the hierarchical corridor the net was routed in, nil for a
	// flat route. Congestion negotiation re-routes the net inside it.
	corr *corridor
}

// Wirelength returns the net's total routed wire length in nm (vias
// excluded) and its via count.
func (rn *RoutedNet) Wirelength(g Grid) (wlNM int64, vias int) {
	for _, e := range rn.Edges {
		if g.IsVia(e) {
			vias++
		} else {
			wlNM += int64(g.GCell)
		}
	}
	return wlNM, vias
}

// Router routes nets incrementally and supports rip-up/re-route (the ECO
// mode the paper's flow uses when restoring true connectivity in the BEOL).
type Router struct {
	Grid Grid
	Opt  Options

	// Usage grids are int16: full-scale superblue grids run to tens of
	// millions of nodes, and usage (nets crossing one gcell edge) stays
	// within a few multiples of Capacity (~15), so halving the element size
	// halves the router's largest resident arrays. addUsage panics before
	// an increment could wrap — silent saturation would corrupt the rip-up
	// accounting that negotiation depends on.
	usageH []int16 // horizontal segment usage, indexed by node index
	usageV []int16 // vertical segment usage
	nets   map[int]*RoutedNet

	// serial is the scratch worker incremental RouteNet calls route on;
	// batched routing spins up additional workers (see batch.go).
	serial *worker

	// planner is the hierarchical strategy's coarse pass, created lazily
	// by the first hier RouteJobs call (see coarse.go); hierStats
	// accumulates what it did. corridorHook, when non-nil, observes (and
	// may perturb) each batch's planned corridors before routing — a
	// deterministic fault-injection point for tests: with soft capacities
	// the tile grid has no organic way to produce an unroutable corridor,
	// but the fallback must still be exercised.
	planner      *coarsePlanner
	hierStats    HierStats
	corridorHook func([]corridor)

	// history is the congestion penalty weight segCost charges per unit
	// of overflow: baseHistory, escalated only while NegotiateReroute runs.
	history float64
}

// NewRouter creates a router over the grid. When Options.Capacity is zero
// it defaults to the physical track count of the gcell pitch (one routing
// track per ~190nm at 45nm-class metal pitches), so fine grids are
// realistically tight and congestion pushes wiring upward exactly as in
// commercial flows.
func NewRouter(grid Grid, opt Options) *Router {
	if opt.Capacity == 0 {
		opt.Capacity = (grid.GCell + 95) / 190 // round(gcell / 190nm pitch)
		if opt.Capacity < 2 {
			opt.Capacity = 2
		}
	}
	n := grid.W * grid.H * (grid.Layers + 1)
	r := &Router{
		Grid:    grid,
		Opt:     opt.withDefaults(),
		usageH:  make([]int16, n),
		usageV:  make([]int16, n),
		nets:    make(map[int]*RoutedNet),
		history: baseHistory,
	}
	r.serial = newWorker(r)
	return r
}

// NumNets returns the number of currently routed nets.
func (r *Router) NumNets() int { return len(r.nets) }

// SortedNetIDs returns the routed net IDs in ascending order — the
// deterministic iteration order consumers need.
func (r *Router) SortedNetIDs() []int {
	ids := make([]int, 0, len(r.nets))
	//smlint:ordered the IDs are sorted below
	for id := range r.nets {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Net returns one routed net, or nil. The returned net is a shared
// read-only view: mutate it only through RouteNet/RipUp.
func (r *Router) Net(id int) *RoutedNet { return r.nets[id] }

// RouteNet routes (or re-routes) net id connecting all pins, honoring the
// minimum-layer lift constraint (minLayer <= 1 means unconstrained). Wire
// segments are only allowed on layers >= max(2, minLayer); below that,
// only vertical via climbs are permitted, so every pin connects upward to
// the trunk. Routing is A*-based per sink with the growing tree as the
// source frontier.
//
// The route is computed first and committed only on success: a failed
// re-route leaves the net's existing route fully intact, and a failed
// fresh route records a Failed marker with no edges — partial trees never
// occupy capacity or leak into ComputeStats/Validate.
//
//smlint:hot
func (r *Router) RouteNet(id int, pins []Pin, minLayer int) error {
	return r.route(id, pins, minLayer, nil)
}

// route is the one serial route path: RouteNet, the serial schedule of a
// batch and congestion negotiation all come through it. With a corridor
// c the search is confined to it, and a corridor that holds no path is
// counted in HierStats.FlatFallbacks and retried flat. A failed fresh
// route leaves the Failed marker; a success is committed.
func (r *Router) route(id int, pins []Pin, minLayer int, c *corridor) error {
	if err := r.checkNet(id, pins, minLayer); err != nil {
		return err
	}
	old := r.nets[id]
	rn, err := r.serial.routeNet(id, pins, minLayer, old, c, nil)
	if errors.Is(err, errCorridor) {
		r.hierStats.FlatFallbacks++
		rn, err = r.serial.routeNet(id, pins, minLayer, old, nil, nil)
	}
	if err != nil {
		if old == nil {
			r.nets[id] = rn // failed marker: no edges, no usage
		}
		return err
	}
	r.commit(rn, old)
	return nil
}

// checkNet rejects a net no route can satisfy: one without pins, or one
// lifted above the top layer.
func (r *Router) checkNet(id int, pins []Pin, minLayer int) error {
	if len(pins) == 0 {
		return fmt.Errorf("route: net %d has no pins", id)
	}
	if minLayer > r.Grid.Layers {
		return fmt.Errorf("route: net %d lift layer M%d above top layer M%d", id, minLayer, r.Grid.Layers)
	}
	return nil
}

// commit installs a freshly routed net: the old route (if any) is ripped
// up and the new edges take its place in the usage maps.
func (r *Router) commit(rn *RoutedNet, old *RoutedNet) {
	if old != nil {
		r.ripUp(old)
	}
	r.nets[rn.ID] = rn
	for _, e := range rn.Edges {
		r.addUsage(e, 1, rn.ID)
	}
}

// RipUp removes a routed net, releasing its routing resources.
func (r *Router) RipUp(id int) {
	if rn := r.nets[id]; rn != nil {
		r.ripUp(rn)
		delete(r.nets, id)
	}
}

func (r *Router) ripUp(rn *RoutedNet) {
	for _, e := range rn.Edges {
		r.addUsage(e, -1, rn.ID)
	}
	rn.Edges = nil
}

// addUsage adjusts the usage grid for one edge, panicking with the full
// edge identity before an increment could wrap the int16 cell: usage
// beyond int16 range means thousands of nets stacked on one gcell edge —
// a corrupted accounting state, not a legitimate design — and wrapping
// silently would break rip-up bookkeeping and congestion negotiation in
// undebuggable ways. The panic names the layer, gcell, direction, and
// the net being committed or ripped up, so a full-scale failure is
// diagnosable without a debugger.
func (r *Router) addUsage(e Edge, d int16, netID int) {
	if r.Grid.IsVia(e) {
		return
	}
	i, horizontal := r.Grid.wireCell(e)
	u := r.usageV
	dir := "vertical"
	if horizontal {
		u = r.usageH
		dir = "horizontal"
	}
	s := int32(u[i]) + int32(d)
	if s > math.MaxInt16 || s < math.MinInt16 {
		lo := r.Grid.NodeAt(i)
		panic(fmt.Sprintf("route: net %d: %s edge usage %d at M%d gcell (%d,%d) overflows int16",
			netID, dir, s, lo.Z, lo.X, lo.Y))
	}
	u[i] = int16(s)
}

// wireUsage returns a wire edge's usage and its key, unique per usage
// cell: the wireCell index doubled, plus 1 if the edge is vertical.
func (r *Router) wireUsage(e Edge) (key int64, u int16) {
	i, horizontal := r.Grid.wireCell(e)
	if horizontal {
		return 2 * int64(i), r.usageH[i]
	}
	return 2*int64(i) + 1, r.usageV[i]
}

// viaCost is the cost of one via step, that of three uncongested M2
// segments (layerBase).
const viaCost int64 = 30

// baseHistory is the congestion penalty weight outside negotiation;
// each negotiation pass multiplies it by 1.8.
const baseHistory = 2.0

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Stats aggregates routing results across all nets.
type Stats struct {
	WirelengthByLayer []int64 // index 1..Layers, nm
	Vias              []int64 // index z: vias between Mz and Mz+1 (1..Layers-1)
	TotalWirelength   int64
	TotalVias         int64
	OverflowEdges     int // edges above capacity
}

// ComputeStats tallies per-layer wirelength, via counts per boundary, and
// capacity overflows.
func (r *Router) ComputeStats() Stats {
	g := r.Grid
	s := Stats{
		WirelengthByLayer: make([]int64, g.Layers+1),
		Vias:              make([]int64, g.Layers+1),
	}
	//smlint:ordered integer sums: the totals are the same in any order
	for _, rn := range r.nets {
		for _, e := range rn.Edges {
			if g.IsVia(e) {
				s.Vias[g.NodeAt(min(e.A, e.B)).Z]++
				s.TotalVias++
			} else {
				s.WirelengthByLayer[g.NodeAt(e.A).Z] += int64(g.GCell)
				s.TotalWirelength += int64(g.GCell)
			}
		}
	}
	for i := range r.usageH {
		if int(r.usageH[i]) > r.Opt.Capacity {
			s.OverflowEdges++
		}
		if int(r.usageV[i]) > r.Opt.Capacity {
			s.OverflowEdges++
		}
	}
	return s
}

// MaxUsage returns the maximum edge usage, for congestion reporting.
func (r *Router) MaxUsage() int {
	m := int16(0)
	for _, u := range r.usageH {
		if u > m {
			m = u
		}
	}
	for _, u := range r.usageV {
		if u > m {
			m = u
		}
	}
	return int(m)
}

// Validate checks every routed net's tree: edges adjacent, connected, and
// spanning all pins; wire segments respect preferred directions and the
// net's lift constraint. Nets are checked in ascending ID order, so the
// error names the lowest failing net.
func (r *Router) Validate() error {
	g := r.Grid
	for _, id := range r.SortedNetIDs() {
		rn := r.nets[id]
		if rn.Failed {
			return fmt.Errorf("route: net %d marked failed", id)
		}
		if len(rn.Pins) <= 1 {
			continue
		}
		adj := map[int32][]int32{}
		for _, e := range rn.Edges {
			a, b := g.Ends(e)
			if !adjacent(a, b) {
				return fmt.Errorf("route: net %d has non-adjacent edge {%v %v}", id, a, b)
			}
			if a.Z == b.Z {
				if Horizontal(a.Z) && a.Y != b.Y {
					return fmt.Errorf("route: net %d routes vertically on horizontal layer M%d", id, a.Z)
				}
				if !Horizontal(a.Z) && a.X != b.X {
					return fmt.Errorf("route: net %d routes horizontally on vertical layer M%d", id, a.Z)
				}
				wireMin := 2
				if rn.MinLayer > wireMin {
					wireMin = rn.MinLayer
				}
				if a.Z < wireMin {
					return fmt.Errorf("route: net %d has wire on M%d below lift layer M%d", id, a.Z, wireMin)
				}
			}
			adj[e.A] = append(adj[e.A], e.B)
			adj[e.B] = append(adj[e.B], e.A)
		}
		// Connectivity: BFS from pin 0's node must reach all pin nodes.
		start := g.Index(g.NodeOf(rn.Pins[0].Pt, rn.Pins[0].Layer))
		seen := map[int32]bool{start: true}
		queue := []int32{start}
		//smlint:bounded BFS with a seen set: each tree node enqueues at most once
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, m := range adj[n] {
				if !seen[m] {
					seen[m] = true
					queue = append(queue, m)
				}
			}
		}
		for i, p := range rn.Pins {
			if !seen[g.Index(g.NodeOf(p.Pt, p.Layer))] {
				return fmt.Errorf("route: net %d pin %d not connected", id, i)
			}
		}
	}
	return nil
}

func adjacent(a, b Node) bool {
	dx := absInt(a.X - b.X)
	dy := absInt(a.Y - b.Y)
	dz := absInt(a.Z - b.Z)
	return dx+dy+dz == 1
}

// NegotiateReroute performs congestion negotiation, the rip-up-and-reroute
// loop (PathFinder's, McMurchie & Ebeling, FPGA 1995) every production
// global router runs to reach a capacity-respecting result. Each pass
// raises the history weight ×1.8 and re-routes only each overflowed edge's
// excess nets (see selectExcess): as in NTHU-Route 2.0, a net is ripped up
// because an edge needs one fewer net, not because it touches a
// congested edge. Passes run until no edge overflows, until a pass clears
// less than stallPercent of the overflowed edges it started with, or
// until maxNegotiatePasses have run. It returns the number of passes that
// re-routed.
//
// The escalation is local to the negotiation: the history weight is reset
// to baseHistory on return, so later RouteNet calls on the same router
// see the base weight, not a compounded one. A net whose re-route fails
// keeps its previous (congested but valid) route.
//
// A net routed inside a corridor (the hierarchical strategy) re-routes
// inside that corridor, falling back to the flat search if the corridor
// is exhausted, like batched refinement: negotiation is where flat
// routing spends most of its time on large dies, and it would otherwise
// reopen exactly the die-sized searches the corridors were built to
// avoid. The loop is serial, its selection walks slices in net-ID and
// edge-key order, and the corridors are a pure function of the batch
// history, so the determinism contract is untouched.
func (r *Router) NegotiateReroute() int {
	defer func() { r.history = baseHistory }()
	// A pass only replaces routes, so the routed IDs stay the same.
	ids := r.SortedNetIDs()
	started := 0
	for pass := 0; pass < maxNegotiatePasses; pass++ {
		sel, over := r.selectExcess(ids)
		if over == 0 || pass > 0 && (started-over)*100 < stallPercent*started {
			return pass
		}
		started = over
		r.history *= 1.8
		for i, id := range ids {
			if !sel[i] {
				continue
			}
			rn := r.nets[id]
			if rn.corr != nil {
				r.hierStats.NegoCorridor++
			}
			// A failed re-route leaves the old route fully intact, and a
			// congested route beats a destroyed one, so errors are dropped.
			_ = r.route(id, rn.Pins, rn.MinLayer, rn.corr)
		}
	}
	return maxNegotiatePasses
}

// overPair is one net crossing one overflowed edge: the edge's usage key
// (see wireUsage) and the net's index in the pass's ID list.
type overPair struct {
	key int64
	net int32
}

// selectExcess picks one negotiation pass's nets from ids, the routed
// net IDs in ascending order. It returns sel[i] for each ID the pass
// re-routes, and how many edges overflow. An edge with usage u needs
// u−Capacity of its nets moved. Visiting the overflowed edges in key
// order, nets already selected count toward that number, and the rest
// are taken from the edge's unselected nets in this order: most
// overflowed edges per routed edge (ov/(len(Edges)+1), compared by
// cross-multiplication), then fewer routed edges, then lower net ID.
func (r *Router) selectExcess(ids []int) (sel []bool, over int) {
	sel = make([]bool, len(ids))
	ov := make([]int, len(ids))    // overflowed edges per net
	edges := make([]int, len(ids)) // len(Edges) per net
	var pairs []overPair
	for i, id := range ids {
		es := r.nets[id].Edges
		edges[i] = len(es)
		for _, e := range es {
			if r.Grid.IsVia(e) {
				continue
			}
			if key, u := r.wireUsage(e); int(u) > r.Opt.Capacity {
				pairs = append(pairs, overPair{key, int32(i)})
				ov[i]++
			}
		}
	}
	slices.SortFunc(pairs, func(a, b overPair) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.net, b.net))
	})
	before := func(a, b int32) int {
		// a ahead of b when ov[a]/(edges[a]+1) > ov[b]/(edges[b]+1).
		ea, eb := edges[a], edges[b]
		return cmp.Or(cmp.Compare(ov[b]*(ea+1), ov[a]*(eb+1)), cmp.Compare(ea, eb), cmp.Compare(a, b))
	}
	var cand []int32 // one edge's unselected nets
	for lo, hi := 0, 0; lo < len(pairs); lo = hi {
		// pairs[lo:hi] are the nets on one overflowed edge.
		for hi = lo + 1; hi < len(pairs) && pairs[hi].key == pairs[lo].key; hi++ {
		}
		over++
		need := hi - lo - r.Opt.Capacity
		cand = cand[:0]
		for _, p := range pairs[lo:hi] {
			if sel[p.net] {
				need--
			} else {
				cand = append(cand, p.net)
			}
		}
		if need <= 0 {
			continue
		}
		slices.SortFunc(cand, before)
		for _, i := range cand[:need] {
			sel[i] = true
		}
	}
	return sel, over
}
