package route

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"splitmfg/internal/geom"
	"splitmfg/internal/heapx"
)

// errCorridor marks a hierarchical refinement whose corridor-confined
// search found no path; Router.route then retries the net with the flat
// search (full detour loop).
var errCorridor = errors.New("route: corridor exhausted")

// worker holds everything one routing computation needs besides the
// shared usage arrays: the A* scratch (reused across searches so
// steady-state routing does not allocate) and a usage-delta overlay that
// stands in for the usual rip-up-then-commit mutation of shared state.
//
// The overlay is what makes failure safe: a route is computed against
// usageH/usageV *plus* the worker's private delta (the net's own edges so
// far at +1, the old route being replaced at -1), so shared state is
// never touched until the route is known to be complete, and a failed
// re-route leaves the old route and its usage exactly as they were.
type worker struct {
	r *Router

	// A* scratch, reused across searches.
	state   []nodeState
	epoch   int32
	pq      heapx.BucketQueue[int32]
	seedBuf []int32
	seedF   []int64 // seedBuf's f-scores
	lb      bound

	// Steiner-tree scratch for the net currently being routed: treeEp
	// stamps membership (a node is in the tree iff treeEp[i] == treeEpoch)
	// and treeList holds each member once, so tree upkeep allocates
	// nothing per net.
	treeEp    []int32
	treeList  []int32
	treeEpoch int32
	orderBuf  []int
	pathBuf   []Edge
	edgeBuf   []Edge // the current net's edges, copied out exactly sized on success

	// Usage overlay for the net currently being routed (int16 to match the
	// shared grids; a single net's edges can never approach the range).
	deltaH   []int16
	deltaV   []int16
	touchedH []int32
	touchedV []int32

	// Corridor mask for hierarchical refinement (strategy.go/coarse.go):
	// while corrOn, wire moves may only enter gcells whose tile is
	// stamped with the current corridor epoch, and search runs a single
	// attempt over corrReg instead of the detour loop. Vias never change
	// x/y, so they need no check. corrEp is sized to the planner's tile
	// grid on first use.
	corrOn    bool
	corrReg   region
	corrEp    []int32
	corrEpoch int32
	corrTW    int
}

func newWorker(r *Router) *worker {
	n := len(r.usageH)
	return &worker{
		r:      r,
		state:  make([]nodeState, n),
		lb:     bound{vias: make([]int64, 4*(r.Grid.Layers+1))},
		deltaH: make([]int16, n),
		deltaV: make([]int16, n),
		treeEp: make([]int32, n),
	}
}

// nodeState is one grid node's A* state: the best distance found so far,
// the search epoch it belongs to (the node is unvisited in the current
// search unless epoch matches), and the predecessor it was reached from.
// One 16-byte record per node, so a relaxation touches one cache line
// instead of three arrays.
type nodeState struct {
	dist  int64
	epoch int32
	from  int32
}

// reset clears the usage overlay for the next net.
//
//smlint:hot
func (w *worker) reset() {
	for _, i := range w.touchedH {
		w.deltaH[i] = 0
	}
	for _, i := range w.touchedV {
		w.deltaV[i] = 0
	}
	w.touchedH = w.touchedH[:0]
	w.touchedV = w.touchedV[:0]
}

// addDelta records one edge in the overlay (the in-flight equivalent of
// Router.addUsage).
//
//smlint:hot
func (w *worker) addDelta(e Edge, d int16) {
	if w.r.Grid.IsVia(e) {
		return
	}
	i, horizontal := w.r.Grid.wireCell(e)
	if horizontal {
		if w.deltaH[i] == 0 {
			w.touchedH = append(w.touchedH, i)
		}
		w.deltaH[i] += d
	} else {
		if w.deltaV[i] == 0 {
			w.touchedV = append(w.touchedV, i)
		}
		w.deltaV[i] += d
	}
}

// layerBase is the cost of one uncongested wire segment on layer z.
// Commercial routers fill the cheap lower layers first and only climb
// under congestion or length pressure; the per-layer bias reproduces the
// paper's Fig. 5 "Original" wirelength profile (most wiring low). It
// grows with z, and segCost never charges less while usage plus overlay
// is non-negative, which is what makes searchBounded's bound a bound.
func layerBase(z int) int64 {
	if z < 2 {
		return 10
	}
	return int64(10 + 10*(z-2))
}

// segCost returns the cost of moving across one wire segment on layer z
// with the current congestion (shared usage plus the worker's overlay);
// i is the node index of the segment's lower end, where usage is kept.
//
//smlint:hot
func (w *worker) segCost(i int32, z int, horizontal bool) int64 {
	r := w.r
	var u int32
	if horizontal {
		u = int32(r.usageH[i]) + int32(w.deltaH[i])
	} else {
		u = int32(r.usageV[i]) + int32(w.deltaV[i])
	}
	base := layerBase(z)
	over := int(u) - r.Opt.Capacity
	if over < 0 {
		// Mild pressure as the edge fills up.
		return base + int64(u)/2
	}
	return base + int64(float64(base)*r.history*float64(over+1))
}

// routeNet computes a route for the net without touching shared router
// state. old, when non-nil, is the net's existing route: its usage is
// masked out through the overlay, exactly as if it had been ripped up
// first. c, when non-nil, is the net's corridor: the worker arms its mask
// for this call, and a corridor holding no path fails with errCorridor.
//
// On success the returned net carries the new edges and its corridor,
// and the caller commits it; on failure it is marked Failed with no
// edges, and shared state is untouched either way.
//
//smlint:hot
func (w *worker) routeNet(id int, pins []Pin, minLayer int, old *RoutedNet, c *corridor) (*RoutedNet, error) {
	defer w.reset()
	if c != nil {
		w.setCorridor(w.r.planner.tw, w.r.planner.th, c.tiles, c.reg)
		defer w.clearCorridor()
	}
	if old != nil {
		for _, e := range old.Edges {
			w.addDelta(e, -1)
		}
	}
	rn := &RoutedNet{ID: id, Pins: append([]Pin(nil), pins...), MinLayer: minLayer, corr: c}
	if len(pins) == 1 {
		return rn, nil
	}
	wireMin := 2
	if minLayer > wireMin {
		wireMin = minLayer
	}

	// Tree nodes so far (as indices); start from pin 0's grid node.
	g := w.r.Grid
	w.treeEpoch++
	w.treeList = w.treeList[:0]
	w.treeAdd(g.Index(g.NodeOf(pins[0].Pt, pins[0].Layer)))

	// Route sinks nearest-first to keep trees short.
	order := w.orderBuf[:0]
	for i := 1; i < len(pins); i++ {
		order = append(order, i)
	}
	w.orderBuf = order
	for i := 0; i < len(order); i++ {
		best := i
		for j := i + 1; j < len(order); j++ {
			if pins[order[j]].Pt.Manhattan(pins[0].Pt) < pins[order[best]].Pt.Manhattan(pins[0].Pt) {
				best = j
			}
		}
		order[i], order[best] = order[best], order[i]
	}

	// Edges collect in the worker's reused buffer and the net keeps one
	// exactly sized copy, so a stored route carries no spare capacity and
	// building it leaves no garbage behind. Routers keep every net of a
	// build live, and several builds can be live at once.
	edges := w.edgeBuf[:0]
	defer func() { w.edgeBuf = edges }()
	for _, pi := range order {
		target := g.NodeOf(pins[pi].Pt, pins[pi].Layer)
		if w.inTree(g.Index(target)) {
			continue
		}
		path, err := w.search(target, wireMin)
		if err != nil {
			rn.Failed = true
			if errors.Is(err, errCorridor) {
				return rn, err
			}
			return rn, fmt.Errorf("route: net %d sink %d: %v", id, pi, err)
		}
		for _, e := range path {
			edges = append(edges, e)
			w.addDelta(e, 1)
			w.treeAdd(e.A)
			w.treeAdd(e.B)
		}
	}
	if len(edges) > 0 {
		rn.Edges = make([]Edge, len(edges))
		copy(rn.Edges, edges)
	}
	return rn, nil
}

// treeAdd inserts a node into the current net's tree (idempotent).
//
//smlint:hot
func (w *worker) treeAdd(i int32) {
	if w.treeEp[i] != w.treeEpoch {
		w.treeEp[i] = w.treeEpoch
		w.treeList = append(w.treeList, i)
	}
}

// inTree reports membership in the current net's tree.
func (w *worker) inTree(i int32) bool { return w.treeEp[i] == w.treeEpoch }

// setCorridor arms the corridor mask: tiles (planner tile indices) are
// stamped into an epoch set and wire moves outside them are pruned until
// clearCorridor. routeNet arms and clears it around one net — the mask is
// worker state, not per-search state.
//
//smlint:hot
func (w *worker) setCorridor(tw, th int, tiles []int32, reg region) {
	if len(w.corrEp) < tw*th {
		w.corrEp = make([]int32, tw*th)
		w.corrEpoch = 0
	}
	w.corrTW = tw
	w.corrEpoch++
	for _, t := range tiles {
		w.corrEp[t] = w.corrEpoch
	}
	w.corrReg = reg
	w.corrOn = true
}

func (w *worker) clearCorridor() { w.corrOn = false }

// wireOK reports whether a wire move may enter gcell (x, y): always in
// flat mode, corridor members only in hierarchical mode.
//
//smlint:hot
func (w *worker) wireOK(x, y int) bool {
	return !w.corrOn || w.corrEp[(y/tileGCells)*w.corrTW+x/tileGCells] == w.corrEpoch
}

// search runs A* from the tree frontier to the target node. Wire moves are
// restricted to layers >= wireMin in the layer's preferred direction; via
// moves are always allowed. The search region is the bounding box of the
// tree and target expanded by maxDetour gcells, retried once at 4x detour.
//
// With a corridor armed (hierarchical refinement) there is no detour
// loop: one attempt runs over the corridor's rectangle with wire moves
// masked to corridor tiles, and failure reports errCorridor so the
// caller can fall back to the flat search.
//
//smlint:hot
func (w *worker) search(target Node, wireMin int) ([]Edge, error) {
	if w.corrOn {
		edges, ok := w.searchBounded(target, wireMin, w.corrReg)
		if ok {
			return edges, nil
		}
		return nil, errCorridor
	}
	for _, detour := range []int{maxDetour, maxDetour * 4} {
		edges, ok := w.searchBounded(target, wireMin, w.searchRegion(target, detour))
		if ok {
			return edges, nil
		}
	}
	return nil, fmt.Errorf("no path to %v (wireMin=M%d)", target, wireMin)
}

// region is an inclusive gcell rectangle.
type region struct {
	loX, loY, hiX, hiY int
}

// grow extends the region to cover gcell (x, y).
func (a *region) grow(x, y int) {
	a.loX, a.loY = min(a.loX, x), min(a.loY, y)
	a.hiX, a.hiY = max(a.hiX, x), max(a.hiY, y)
}

// widen expands the region by d gcells on every side, clamped to the grid.
func (a region) widen(d int, g Grid) region {
	return region{
		loX: geom.Clamp(a.loX-d, 0, g.W-1),
		loY: geom.Clamp(a.loY-d, 0, g.H-1),
		hiX: geom.Clamp(a.hiX+d, 0, g.W-1),
		hiY: geom.Clamp(a.hiY+d, 0, g.H-1),
	}
}

// searchRegion is the clamped bounding box of the tree and target expanded
// by detour gcells.
func (w *worker) searchRegion(target Node, detour int) region {
	g := w.r.Grid
	reg := region{loX: target.X, loY: target.Y, hiX: target.X, hiY: target.Y}
	for _, t := range w.treeList {
		n := g.NodeAt(t)
		reg.grow(n.X, n.Y)
	}
	return reg.widen(detour, g)
}

// bound is searchBounded's lower bound on the cost of reaching the
// target from a node: base(zh)·|dx| + base(zv)·|dy| + via·f(z), where zh
// and zv are the lowest horizontal and vertical layers a wire move may
// use (base is layerBase) and f(z) counts the vias the rest of the path
// needs at least: |z − tz|, or (L − z) + (L − tz) when the moves left
// need a wire layer L above both z and the target layer tz. Every
// horizontal step costs at least base(zh) and every vertical step
// base(zv), so the bound is admissible. It is also consistent: a via
// changes f by at most one, and a wire move in direction D runs on a
// layer at or above z_D, where f does not depend on whether that axis
// still needs a move. So A* pops each node at its final distance and
// returns a minimum-cost path.
//
// The x and y terms are per axis; the via term is read from a table
// indexed by (dx ≠ 0, dy ≠ 0, z), so a relaxation costs a few adds.
type bound struct {
	tx, ty int
	bh, bv int64   // base(zh), base(zv)
	rows   int     // Layers+1: the table's row length
	vias   []int64 // via·f(z) at (2·[dx≠0] + [dy≠0])·rows + z
}

// setBound readies w.lb for a search to target with wire moves on layers
// at or above wireMin (>= 2).
//
//smlint:hot
func (w *worker) setBound(target Node, wireMin int) {
	zh := max(wireMin, 3)
	if !Horizontal(zh) {
		zh++
	}
	zv := wireMin
	if Horizontal(zv) {
		zv++
	}
	b := &w.lb
	b.tx, b.ty = target.X, target.Y
	b.bh, b.bv = layerBase(zh), layerBase(zv)
	b.rows = w.r.Grid.Layers + 1
	tz := target.Z
	for k := 0; k < 4; k++ {
		lift := 0 // the wire layer the remaining moves need, if any
		if k&2 != 0 {
			lift = zh
		}
		if k&1 != 0 {
			lift = max(lift, zv)
		}
		row := b.vias[k*b.rows : (k+1)*b.rows]
		for z := range row {
			f := absInt(z - tz)
			if lift > z && lift > tz {
				f = (lift - z) + (lift - tz)
			}
			row[z] = int64(f) * viaCost
		}
	}
}

// hx, hy and hz are the bound's x, y and via terms at a node; the
// bound is their sum.
//
//smlint:hot
func (b *bound) hx(x int) int64 { return int64(absInt(x-b.tx)) * b.bh }

//smlint:hot
func (b *bound) hy(y int) int64 { return int64(absInt(y-b.ty)) * b.bv }

//smlint:hot
func (b *bound) hz(x, y, z int) int64 {
	if x != b.tx {
		z += 2 * b.rows
	}
	if y != b.ty {
		z += b.rows
	}
	return b.vias[z]
}

// searchBounded is one A* attempt from the current tree to target with
// wire moves confined to reg (and to the corridor mask, when armed).
// Each popped node is decoded once; its neighbours are reached by index
// stride — Grid.Index is (z*H + y)*W + x, so they sit at ±1, ±W and
// ±W*H — and each wire segment is priced by the index of its lower end.
// The heuristic is bound's; a neighbour's value redoes only the terms
// its move can change. The terms sum to exactly the whole formula's
// integer, so every priority, and with it every tie-break and route, is
// the formula's. The bound is consistent, so no push falls below the
// last popped f-score and the frontier is a monotone heapx.BucketQueue:
// a push less than its window above the last pop is an O(1) link into
// an exact-priority bucket, and equal f-scores pop newest push first.
//
//smlint:hot
func (w *worker) searchBounded(target Node, wireMin int, reg region) ([]Edge, bool) {
	r := w.r
	g := r.Grid
	loX, loY, hiX, hiY := reg.loX, reg.loY, reg.hiX, reg.hiY
	strideY, strideZ := int32(g.W), int32(g.W*g.H)

	w.epoch++
	ep := w.epoch
	tIdx := g.Index(target)

	w.setBound(target, wireMin)
	lb := &w.lb
	// Seed the frontier in sorted node order: tree insertion order would
	// otherwise leak into equal-cost tie-breaks, and historically the tree
	// was a map whose keys were seeded sorted — keeping that order keeps
	// routing byte-identical.
	seeds := append(w.seedBuf[:0], w.treeList...)
	slices.Sort(seeds)
	w.seedBuf = seeds
	st := w.state
	q := &w.pq
	// Seeds are all pushed before the first pop, so the frontier's floor
	// starts at their lowest f-score and they link straight into their
	// buckets.
	fs := w.seedF[:0]
	floor := int64(math.MaxInt64)
	for _, t := range seeds {
		n := g.NodeAt(t)
		f := lb.hx(n.X) + lb.hy(n.Y) + lb.hz(n.X, n.Y, n.Z)
		fs = append(fs, f)
		floor = min(floor, f)
	}
	w.seedF = fs
	q.Reset(floor)
	for i, t := range seeds {
		st[t] = nodeState{dist: 0, epoch: ep, from: -1}
		q.Push(fs[i], t)
	}
	relax := func(cur, ni int32, nd, hn int64) {
		s := &st[ni]
		if s.epoch != ep || nd < s.dist {
			*s = nodeState{dist: nd, epoch: ep, from: cur}
			q.Push(nd+hn, ni)
		}
	}
	//smlint:bounded A* frontier is confined to the clamped search region (searchRegion), so pushes are finite; cancellation is enforced between nets by the flow layer
	for q.Len() > 0 {
		pri, cur := q.Pop()
		s := st[cur]
		if s.epoch != ep {
			continue // stale entry
		}
		n := g.NodeAt(cur)
		hX, hY := lb.hx(n.X), lb.hy(n.Y)
		d := s.dist
		if pri > d+hX+hY+lb.hz(n.X, n.Y, n.Z) {
			continue // stale entry
		}
		if cur == tIdx {
			// Reconstruct path back to the tree (into the worker's reusable
			// buffer — the caller consumes it before the next search).
			edges := w.pathBuf[:0]
			for i := cur; st[i].from >= 0; i = st[i].from {
				edges = append(edges, Edge{A: st[i].from, B: i})
			}
			w.pathBuf = edges
			return edges, true
		}
		// Via moves.
		if n.Z < g.Layers {
			relax(cur, cur+strideZ, d+viaCost, hX+hY+lb.hz(n.X, n.Y, n.Z+1))
		}
		if n.Z > 1 {
			relax(cur, cur-strideZ, d+viaCost, hX+hY+lb.hz(n.X, n.Y, n.Z-1))
		}
		// Wire moves (preferred direction, within bounds and the corridor
		// mask, above wireMin).
		if n.Z >= wireMin {
			if Horizontal(n.Z) {
				if n.X > loX && w.wireOK(n.X-1, n.Y) {
					relax(cur, cur-1, d+w.segCost(cur-1, n.Z, true), lb.hx(n.X-1)+hY+lb.hz(n.X-1, n.Y, n.Z))
				}
				if n.X < hiX && w.wireOK(n.X+1, n.Y) {
					relax(cur, cur+1, d+w.segCost(cur, n.Z, true), lb.hx(n.X+1)+hY+lb.hz(n.X+1, n.Y, n.Z))
				}
			} else {
				if n.Y > loY && w.wireOK(n.X, n.Y-1) {
					relax(cur, cur-strideY, d+w.segCost(cur-strideY, n.Z, false), hX+lb.hy(n.Y-1)+lb.hz(n.X, n.Y-1, n.Z))
				}
				if n.Y < hiY && w.wireOK(n.X, n.Y+1) {
					relax(cur, cur+strideY, d+w.segCost(cur, n.Z, false), hX+lb.hy(n.Y+1)+lb.hz(n.X, n.Y+1, n.Z))
				}
			}
		}
	}
	return nil, false
}
