package route

import (
	"slices"

	"splitmfg/internal/heapx"
)

// The hierarchical strategy's coarse pass plans every multi-pin net of a
// batch onto a grid of tiles (tileGCells x tileGCells gcells) before any
// fine routing happens. Per net it builds a Steiner tree over tile centers —
// pin tiles attach nearest-first to the grown tree via multi-source A*
// over tile-boundary capacities, so branches meet at shared tiles
// (Steiner points) and a k-sink net decomposes into <= k narrow two-pin
// tile paths instead of one die-sized bounding box. The union of those
// paths is the net's corridor: the only region its fine A* may explore.
// There is no dilation margin — gcell capacities are soft, so within a
// connected tile set containing every pin tile the fine search cannot be
// hard-blocked, and tight corridors are where the speedup comes from.
//
// The pass is cheap (the tile grid is ~100x smaller than the gcell grid
// per axis squared) and a pure function of the jobs and prior corridor
// demand, so a batch's corridors are deterministic.

// corridor is one net's coarse result: the tile set its fine search may
// explore and that set's gcell bounding rectangle. plan returns tiles as
// views into the planner's per-batch arena, resolved after the whole
// batch is planned (the arena may move while growing); RouteJobs routes
// on a copy (cloneCorridors). A zero corridor (single-pin net) means "no
// searches: flat rules apply".
type corridor struct {
	off, n int
	tiles  []int32
	reg    region
}

// corridorOf returns job i's corridor, or nil when it routes flat: the
// batch has no corridors (flat strategy) or the job is single-pin.
func corridorOf(corrs []corridor, i int) *corridor {
	if corrs == nil || corrs[i].n == 0 {
		return nil
	}
	return &corrs[i]
}

// cloneCorridors copies a batch's corridors and their tiles out of the
// planner's arena, which the next plan reuses.
func cloneCorridors(src []corridor) []corridor {
	out := slices.Clone(src)
	for i := range out {
		out[i].tiles = slices.Clone(out[i].tiles)
	}
	return out
}

// tileGCells is the side of a coarse tile in gcells. The corridor mask
// (worker.wireOK) reads gcells through the same tiling.
const tileGCells = 8

// tileBase is the cost of entering one tile in the coarse A*; congestion
// penalties are scaled against it.
const tileBase = 16

// coarsePlanner holds the tile grid state and all scratch the coarse
// pass needs, cached on the Router so steady-state planning does not
// allocate. Corridor demand on tile boundaries persists across batches
// on the same router, spreading later corridors away from earlier ones
// exactly like fine-grid history costs.
type coarsePlanner struct {
	r      *Router
	tw, th int // tiles in x and y

	// Corridor demand per tile boundary, indexed by the lower tile:
	// useH[t] counts corridors crossing between tile t and t+1 (same
	// row), useV[t] between t and t+tw.
	useH, useV []int32
	cap        int32 // soft corridor capacity per tile boundary

	// A* scratch over the tile grid, epoch-stamped.
	dist    []int64
	visitID []int32
	from    []int32
	epoch   int32
	pq      heapx.Heap[int32]

	// Tile-set membership scratch (epoch-stamped, shared by pin-tile
	// dedup and the growing corridor — each takes a fresh epoch).
	setEp    []int32
	setEpoch int32

	// Per-job scratch.
	core   []int32 // corridor tiles (pin tiles + connecting paths)
	ptiles []int32 // dedup'd pin tiles, [0] always pin 0's tile

	// Per-batch output, reused across batches.
	arena []int32
	corrs []corridor
}

func newCoarsePlanner(r *Router) *coarsePlanner {
	tw := (r.Grid.W + tileGCells - 1) / tileGCells
	th := (r.Grid.H + tileGCells - 1) / tileGCells
	n := tw * th
	// Soft capacity: gcell boundaries crossing one tile edge, times
	// tracks per boundary, times the layers that can route across it
	// (half the stack in each preferred direction).
	cp := int32(tileGCells * r.Opt.Capacity * r.Grid.Layers / 2)
	if cp < 1 {
		cp = 1
	}
	return &coarsePlanner{
		r: r, tw: tw, th: th,
		useH: make([]int32, n), useV: make([]int32, n),
		cap:  cp,
		dist: make([]int64, n), visitID: make([]int32, n), from: make([]int32, n),
		setEp: make([]int32, n),
	}
}

func (c *coarsePlanner) tileOf(x, y int) int32 {
	return int32((y/tileGCells)*c.tw + x/tileGCells)
}

// boundaryCost prices crossing one tile boundary with the given corridor
// demand: mild pressure while under capacity, a steep (but soft — the
// tile grid has no hard blocks) wall above it, mirroring segCost's shape
// one level up.
//
//smlint:hot
func (c *coarsePlanner) boundaryCost(u int32) int64 {
	if u < c.cap {
		return tileBase + int64(u)*tileBase/int64(c.cap)
	}
	return tileBase + 4*tileBase*int64(u-c.cap+1)
}

// plan runs the coarse pass for one batch, returning a corridor per job
// (parallel to jobs). Serial by design; the returned slice and its tile
// views are read-only until the next plan call.
func (c *coarsePlanner) plan(jobs []Job) []corridor {
	c.corrs = c.corrs[:0]
	c.arena = c.arena[:0]
	for _, j := range jobs {
		c.corrs = append(c.corrs, c.planNet(j))
	}
	// Resolve tile views only now: the arena no longer moves.
	for i := range c.corrs {
		co := &c.corrs[i]
		co.tiles = c.arena[co.off : co.off+co.n]
		if co.n > 0 {
			c.r.hierStats.CorridorNets++
		}
	}
	return c.corrs
}

// planNet plans one net's corridor: dedup pin tiles, attach each to the
// growing tile tree nearest-first, and append the resulting tile set to
// the batch arena.
//
//smlint:hot
func (c *coarsePlanner) planNet(j Job) corridor {
	if len(j.Pins) <= 1 {
		return corridor{}
	}
	g := c.r.Grid

	// Dedup pin tiles, pin 0's tile first.
	c.setEpoch++
	ep := c.setEpoch
	pt := c.ptiles[:0]
	for _, p := range j.Pins {
		n := g.NodeOf(p.Pt, p.Layer)
		ti := c.tileOf(n.X, n.Y)
		if c.setEp[ti] != ep {
			c.setEp[ti] = ep
			pt = append(pt, ti)
		}
	}
	c.ptiles = pt

	// Prim-style attachment order: remaining pin tiles sorted by
	// Manhattan tile distance from the root tile, ties by tile index —
	// deterministic, and it mirrors the fine router's nearest-first sink
	// order. Insertion sort: pin-tile counts are tiny and sort.Slice
	// would allocate on this per-net path.
	root := pt[0]
	rest := pt[1:]
	for i := 1; i < len(rest); i++ {
		v := rest[i]
		dv := c.tileDist(root, v)
		j := i - 1
		for j >= 0 {
			dj := c.tileDist(root, rest[j])
			if dj < dv || (dj == dv && rest[j] < v) {
				break
			}
			rest[j+1] = rest[j]
			j--
		}
		rest[j+1] = v
	}

	// Grow the corridor: root tile, then one multi-source A* per pin
	// tile from the whole corridor so far.
	c.setEpoch++
	ce := c.setEpoch
	c.core = c.core[:0]
	c.setEp[root] = ce
	c.core = append(c.core, root)
	for _, t := range rest {
		if c.setEp[t] == ce {
			continue // already swallowed by an earlier path
		}
		c.connect(t)
	}

	// The corridor is exactly the core — no dilation margin (see the
	// package comment above). Track the tile bounding box: it is the fine
	// search's region.
	loTx, loTy, hiTx, hiTy := c.tw, c.th, -1, -1
	for _, t := range c.core {
		tx, ty := int(t)%c.tw, int(t)/c.tw
		if tx < loTx {
			loTx = tx
		}
		if ty < loTy {
			loTy = ty
		}
		if tx > hiTx {
			hiTx = tx
		}
		if ty > hiTy {
			hiTy = ty
		}
	}

	reg := region{
		loX: loTx * tileGCells,
		loY: loTy * tileGCells,
		hiX: hiTx*tileGCells + tileGCells - 1,
		hiY: hiTy*tileGCells + tileGCells - 1,
	}
	if reg.hiX > g.W-1 {
		reg.hiX = g.W - 1
	}
	if reg.hiY > g.H-1 {
		reg.hiY = g.H - 1
	}
	off := len(c.arena)
	c.arena = append(c.arena, c.core...)
	return corridor{off: off, n: len(c.core), reg: reg}
}

func (c *coarsePlanner) tileDist(a, b int32) int {
	ax, ay := int(a)%c.tw, int(a)/c.tw
	bx, by := int(b)%c.tw, int(b)/c.tw
	return absInt(ax-bx) + absInt(ay-by)
}

// hDist is connect's admissible A* heuristic: Manhattan tile distance to
// the target times the base tile cost (congestion only adds to that).
func (c *coarsePlanner) hDist(i int32, ttx, tty int) int64 {
	tx, ty := int(i)%c.tw, int(i)/c.tw
	return int64(absInt(tx-ttx)+absInt(ty-tty)) * tileBase
}

// relaxTile relaxes one tile-grid edge cur -> ni (method rather than a
// closure so steady-state planning does not allocate).
//
//smlint:hot
func (c *coarsePlanner) relaxTile(ep, cur, ni int32, cost int64, ttx, tty int) {
	nd := c.dist[cur] + cost
	if c.visitID[ni] != ep || nd < c.dist[ni] {
		c.visitID[ni] = ep
		c.dist[ni] = nd
		c.from[ni] = cur
		c.pq.Push(nd+c.hDist(ni, ttx, tty), ni)
	}
}

// connect runs one multi-source A* over the tile grid from the current
// corridor (every tile stamped with the corridor epoch) to the target
// tile, then appends the found path's tiles to the corridor and charges
// one unit of demand per crossed boundary. The tile grid has no hard
// blocks, so the search always reaches its target.
//
//smlint:hot
func (c *coarsePlanner) connect(target int32) {
	c.epoch++
	ep := c.epoch
	ce := c.setEpoch // corridor membership epoch (see planNet)
	ttx, tty := int(target)%c.tw, int(target)/c.tw
	q := &c.pq
	q.Reset()
	for _, t := range c.core {
		c.dist[t] = 0
		c.visitID[t] = ep
		c.from[t] = -1
		q.Push(c.hDist(t, ttx, tty), t)
	}
	//smlint:bounded A* frontier over the finite tile grid with an admissible heuristic; every tile enqueues finitely often
	for q.Len() > 0 {
		pri, cur := q.Pop()
		if c.visitID[cur] != ep || pri > c.dist[cur]+c.hDist(cur, ttx, tty) {
			continue // stale entry
		}
		if cur == target {
			for i := cur; c.from[i] >= 0; i = c.from[i] {
				if c.setEp[i] != ce {
					c.setEp[i] = ce
					c.core = append(c.core, i)
				}
				c.bumpDemand(c.from[i], i)
			}
			break
		}
		tx, ty := int(cur)%c.tw, int(cur)/c.tw
		if tx > 0 {
			c.relaxTile(ep, cur, cur-1, c.boundaryCost(c.useH[cur-1]), ttx, tty)
		}
		if tx < c.tw-1 {
			c.relaxTile(ep, cur, cur+1, c.boundaryCost(c.useH[cur]), ttx, tty)
		}
		if ty > 0 {
			c.relaxTile(ep, cur, cur-int32(c.tw), c.boundaryCost(c.useV[cur-int32(c.tw)]), ttx, tty)
		}
		if ty < c.th-1 {
			c.relaxTile(ep, cur, cur+int32(c.tw), c.boundaryCost(c.useV[cur]), ttx, tty)
		}
	}
}

// bumpDemand charges one corridor crossing to the boundary between two
// adjacent tiles.
func (c *coarsePlanner) bumpDemand(a, b int32) {
	lo := a
	if b < lo {
		lo = b
	}
	if a/int32(c.tw) == b/int32(c.tw) {
		c.useH[lo]++
	} else {
		c.useV[lo]++
	}
}
