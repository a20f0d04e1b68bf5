package route

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"splitmfg/internal/geom"
)

// refScratch is the A* state referenceSearch keeps: three parallel
// arrays instead of nodeState records.
type refScratch struct {
	dist    []int64
	visitID []int32
	from    []int32
	epoch   int32
	path    []Edge
}

func newRefScratch(n int) *refScratch {
	return &refScratch{dist: make([]int64, n), visitID: make([]int32, n), from: make([]int32, n)}
}

// refPQ is a container/heap priority queue of (f-score, node index)
// that pops equal f-scores newest push first — the tie order of the
// heapx.BucketQueue under searchBounded.
type refPQ struct {
	items []refPQItem
	seq   int // pushes so far
}

type refPQItem struct {
	pri  int64
	seq  int
	node int32
}

func (q *refPQ) Len() int { return len(q.items) }
func (q *refPQ) Less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq > b.seq
}
func (q *refPQ) Swap(i, j int) { q.items[i], q.items[j] = q.items[j], q.items[i] }
func (q *refPQ) Push(x any) {
	it := x.(refPQItem)
	it.seq = q.seq
	q.seq++
	q.items = append(q.items, it)
}
func (q *refPQ) Pop() any {
	it := q.items[len(q.items)-1]
	q.items = q.items[:len(q.items)-1]
	return it
}

// refSegCost is segCost as it was when it took the segment's lower node
// and re-encoded its index.
func refSegCost(w *worker, lo Node, horizontal bool) int64 {
	r := w.r
	i := r.Grid.Index(lo)
	var u int32
	if horizontal {
		u = int32(r.usageH[i])
	} else {
		u = int32(r.usageV[i])
	}
	base := layerBase(lo.Z)
	over := int(u) - r.Opt.Capacity
	if over < 0 {
		return base + int64(u)/2
	}
	return base + int64(float64(base)*r.history*float64(over+1))
}

// refBound is searchBounded's lower bound computed from the whole-node
// formula base(zh)·|dx| + base(zv)·|dy| + via·f(z), with zh and zv found
// by scanning up from wireMin.
func refBound(w *worker, target Node, wireMin int) func(Node) int64 {
	zh := wireMin
	for zh < 3 || !Horizontal(zh) {
		zh++
	}
	zv := wireMin
	for Horizontal(zv) {
		zv++
	}
	return func(n Node) int64 {
		dx, dy := absInt(n.X-target.X), absInt(n.Y-target.Y)
		lift := 0
		if dx > 0 {
			lift = zh
		}
		if dy > 0 && zv > lift {
			lift = zv
		}
		f := absInt(n.Z - target.Z)
		if lift > n.Z && lift > target.Z {
			f = 2*lift - n.Z - target.Z
		}
		return int64(dx)*layerBase(zh) + int64(dy)*layerBase(zv) + int64(f)*viaCost
	}
}

// zeroBound turns referenceSearch into Dijkstra's algorithm.
func zeroBound(Node) int64 { return 0 }

// referenceSearch is searchBounded as it was before nodeState, stride
// indices and the per-axis heuristic: every neighbour is re-encoded with
// Router.idx, its heuristic h recomputed from scratch, and the queue is
// container/heap (refPQ, ties newest first). It reads the same worker
// state (tree, corridor) and router usage, and keeps its A* state in rs. With
// refBound it must match searchBounded edge for edge; with zeroBound it
// is Dijkstra.
func referenceSearch(w *worker, rs *refScratch, target Node, wireMin int, reg region, h func(Node) int64) ([]Edge, bool) {
	g := w.r.Grid
	loX, loY, hiX, hiY := reg.loX, reg.loY, reg.hiX, reg.hiY

	rs.epoch++
	ep := rs.epoch
	tIdx := g.Index(target)

	seeds := slices.Clone(w.treeList)
	slices.Sort(seeds)
	q := &refPQ{}
	for _, t := range seeds {
		rs.dist[t] = 0
		rs.visitID[t] = ep
		rs.from[t] = -1
		heap.Push(q, refPQItem{pri: h(g.NodeAt(t)), node: t})
	}
	relax := func(cur int32, next Node, cost int64) {
		ni := g.Index(next)
		nd := rs.dist[cur] + cost
		if rs.visitID[ni] != ep || nd < rs.dist[ni] {
			rs.visitID[ni] = ep
			rs.dist[ni] = nd
			rs.from[ni] = cur
			heap.Push(q, refPQItem{pri: nd + h(next), node: ni})
		}
	}
	for q.Len() > 0 {
		it := heap.Pop(q).(refPQItem)
		cur := it.node
		if rs.visitID[cur] != ep {
			continue
		}
		n := g.NodeAt(cur)
		if it.pri > rs.dist[cur]+h(n) {
			continue
		}
		if cur == tIdx {
			edges := rs.path[:0]
			for i := cur; rs.from[i] >= 0; i = rs.from[i] {
				edges = append(edges, Edge{A: rs.from[i], B: i})
			}
			rs.path = edges
			return edges, true
		}
		if n.Z < g.Layers {
			relax(cur, Node{n.X, n.Y, n.Z + 1}, viaCost)
		}
		if n.Z > 1 {
			relax(cur, Node{n.X, n.Y, n.Z - 1}, viaCost)
		}
		if n.Z >= wireMin {
			if Horizontal(n.Z) {
				if n.X > loX && w.wireOK(n.X-1, n.Y) {
					relax(cur, Node{n.X - 1, n.Y, n.Z}, refSegCost(w, Node{n.X - 1, n.Y, n.Z}, true))
				}
				if n.X < hiX && w.wireOK(n.X+1, n.Y) {
					relax(cur, Node{n.X + 1, n.Y, n.Z}, refSegCost(w, n, true))
				}
			} else {
				if n.Y > loY && w.wireOK(n.X, n.Y-1) {
					relax(cur, Node{n.X, n.Y - 1, n.Z}, refSegCost(w, Node{n.X, n.Y - 1, n.Z}, false))
				}
				if n.Y < hiY && w.wireOK(n.X, n.Y+1) {
					relax(cur, Node{n.X, n.Y + 1, n.Z}, refSegCost(w, n, false))
				}
			}
		}
	}
	return nil, false
}

// pathCost prices a found path the way the search did: via cost per via,
// segCost per wire segment (at its lower end).
func pathCost(w *worker, path []Edge) int64 {
	var c int64
	for _, e := range path {
		a, b := w.r.Grid.Ends(e)
		if a.Z != b.Z {
			c += viaCost
			continue
		}
		lo := a
		if b.X < lo.X || b.Y < lo.Y {
			lo = b
		}
		c += refSegCost(w, lo, a.Y == b.Y)
	}
	return c
}

// randomRouter is a router over a gw×gh×layers grid with random usage
// straddling capacity, under the default or an escalated history cost.
// Usage is drawn in two rounds, a level and then on about a quarter of
// the cells an adjustment of −2..+2, as a net's own edges and a replaced
// route shift it during a re-route. It stays non-negative, as the router
// guarantees: a route only ever takes out edges the usage already counts.
func randomRouter(rng *rand.Rand, gw, gh, layers int) (*Router, *worker) {
	die := geom.Rect{Hi: geom.Point{X: gw * DefaultGCellNM, Y: gh * DefaultGCellNM}}
	grid := NewGrid(die, DefaultGCellNM, layers)
	hist := 2.0
	for k := rng.Intn(4); k > 0; k-- {
		hist *= 1.8 // NegotiateReroute's escalation
	}
	r := NewRouter(grid, Options{Capacity: 2 + rng.Intn(5)})
	r.history = hist
	capacity := r.Opt.Capacity
	for i := range r.usageH {
		if rng.Intn(3) > 0 {
			r.usageH[i] = int16(max(0, capacity+rng.Intn(7)-4))
			r.usageV[i] = int16(max(0, capacity+rng.Intn(7)-4))
		}
	}
	for i := range r.usageH {
		if rng.Intn(4) == 0 {
			r.usageH[i] += int16(max(rng.Intn(5)-2, -int(r.usageH[i])))
			r.usageV[i] += int16(max(rng.Intn(5)-2, -int(r.usageV[i])))
		}
	}
	return r, newWorker(r)
}

// randomSearch seeds w with a random multi-node tree and returns a
// target (now and then a tree node) and a search region; with corridor
// set it arms a corridor instead: a random subset of the planner's
// tiles (always the target's) over its own rectangle.
func randomSearch(rng *rand.Rand, w *worker, corridor bool) (Node, region) {
	r := w.r
	grid := r.Grid
	randNode := func() Node {
		return Node{X: rng.Intn(grid.W), Y: rng.Intn(grid.H), Z: 1 + rng.Intn(grid.Layers)}
	}
	w.treeEpoch++
	w.treeList = w.treeList[:0]
	for k := 1 + rng.Intn(6); k > 0; k-- {
		w.treeAdd(grid.Index(randNode()))
	}
	target := randNode()
	if rng.Intn(10) == 0 {
		target = grid.NodeAt(w.treeList[0])
	}
	if !corridor {
		return target, w.searchRegion(target, rng.Intn(13))
	}
	tw := (grid.W + tileGCells - 1) / tileGCells
	th := (grid.H + tileGCells - 1) / tileGCells
	tiles := []int32{int32((target.Y/tileGCells)*tw + target.X/tileGCells)}
	for ti := 0; ti < tw*th; ti++ {
		if rng.Intn(2) == 0 {
			tiles = append(tiles, int32(ti))
		}
	}
	reg := region{
		loX: rng.Intn(target.X + 1), loY: rng.Intn(target.Y + 1),
		hiX: target.X + rng.Intn(grid.W-target.X), hiY: target.Y + rng.Intn(grid.H-target.Y),
	}
	w.setCorridor(tw, th, tiles, reg)
	return target, reg
}

// TestSearchMatchesReference pins searchBounded to referenceSearch under
// refBound on randomized cases: grids down to one gcell wide or tall,
// detour regions clamped at the die edge, usage straddling capacity, the
// default or an escalated history cost,
// wireMin from M2 up to the top layer, multi-node trees as seeds, and
// corridor masks on or off. Several searches share each worker, so stale
// epochs are exercised too. Both must find the same path — edge for
// edge — or both fail.
func TestSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	found, missed, corridors := 0, 0, 0
	for trial := 0; trial < 1200; trial++ {
		gw, gh := 1+rng.Intn(40), 1+rng.Intn(40)
		switch trial % 8 {
		case 0:
			gw = 1
		case 1:
			gh = 1
		}
		r, w := randomRouter(rng, gw, gh, 3+rng.Intn(8))
		grid := r.Grid
		rs := newRefScratch(len(r.usageH))
		for search := 0; search < 4; search++ {
			target, reg := randomSearch(rng, w, rng.Intn(3) == 0)
			wireMin := 2 + rng.Intn(grid.Layers-1)
			got, ok := w.searchBounded(target, wireMin, reg)
			got = slices.Clone(got)
			want, wantOK := referenceSearch(w, rs, target, wireMin, reg, refBound(w, target, wireMin))
			corr := w.corrOn
			w.clearCorridor()
			if ok != wantOK || !slices.Equal(got, want) {
				t.Fatalf("trial %d search %d (grid %dx%dx%d, wireMin %d, history %g, region %+v, corridor %v): found=%v %v, reference found=%v %v",
					trial, search, grid.W, grid.H, grid.Layers, wireMin, r.history, reg, corr, ok, got, wantOK, want)
			}
			if corr {
				corridors++
			}
			if ok {
				found++
			} else {
				missed++
			}
		}
	}
	// The generator must exercise both outcomes and the corridor mask.
	if found < 100 || missed < 20 || corridors < 100 {
		t.Fatalf("weak coverage: %d found, %d not found, %d corridor searches", found, missed, corridors)
	}
	t.Logf("%d found, %d not found, %d corridor searches", found, missed, corridors)
}

// checkMinimumCost runs searchBounded and Dijkstra (referenceSearch
// under zeroBound) on the same worker state and reports a mismatch in
// found/not-found or in path cost. It clears any armed corridor.
func checkMinimumCost(w *worker, rs *refScratch, target Node, wireMin int, reg region) (found bool, err error) {
	defer w.clearCorridor()
	got, ok := w.searchBounded(target, wireMin, reg)
	gotCost := pathCost(w, got)
	want, wantOK := referenceSearch(w, rs, target, wireMin, reg, zeroBound)
	if ok != wantOK || (ok && gotCost != pathCost(w, want)) {
		return ok, fmt.Errorf("A* found=%v cost %d, Dijkstra found=%v cost %d", ok, gotCost, wantOK, pathCost(w, want))
	}
	return ok, nil
}

// TestSearchFindsMinimumCost checks the bound's promise: on random grids,
// with every wireMin from M2 to the top layer and corridors on and off,
// searchBounded finds a path exactly when Dijkstra does, and its path
// costs what Dijkstra's does.
func TestSearchFindsMinimumCost(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	found, missed, corridors := 0, 0, 0
	for trial := 0; trial < 1000; trial++ {
		r, w := randomRouter(rng, 1+rng.Intn(24), 1+rng.Intn(24), 3+rng.Intn(8))
		grid := r.Grid
		rs := newRefScratch(len(r.usageH))
		for wireMin := 2; wireMin <= grid.Layers; wireMin++ {
			corridor := (trial+wireMin)%2 == 0
			target, reg := randomSearch(rng, w, corridor)
			ok, err := checkMinimumCost(w, rs, target, wireMin, reg)
			if err != nil {
				t.Fatalf("grid %d (%dx%dx%d, wireMin %d, region %+v, corridor %v): %v",
					trial, grid.W, grid.H, grid.Layers, wireMin, reg, corridor, err)
			}
			if corridor {
				corridors++
			}
			if ok {
				found++
			} else {
				missed++
			}
		}
	}
	if found < 1000 || missed < 50 || corridors < 1000 {
		t.Fatalf("weak coverage: %d found, %d not found, %d corridor searches", found, missed, corridors)
	}
	t.Logf("%d found, %d not found, %d corridor searches", found, missed, corridors)
}

// FuzzSearchMinimumCost is TestSearchFindsMinimumCost with the grid
// shape, wireMin and generator seed chosen by the fuzzer.
func FuzzSearchMinimumCost(f *testing.F) {
	f.Add(uint8(12), uint8(9), uint8(10), uint8(6), int64(1))
	f.Add(uint8(1), uint8(30), uint8(3), uint8(2), int64(2))
	f.Add(uint8(30), uint8(1), uint8(8), uint8(8), int64(3))
	f.Fuzz(func(t *testing.T, gw, gh, layers, wireMin uint8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		nl := 3 + int(layers)%8
		r, w := randomRouter(rng, 1+int(gw)%32, 1+int(gh)%32, nl)
		rs := newRefScratch(len(r.usageH))
		wm := 2 + int(wireMin)%(nl-1)
		for search := 0; search < 4; search++ {
			target, reg := randomSearch(rng, w, search%2 == 1)
			if _, err := checkMinimumCost(w, rs, target, wm, reg); err != nil {
				t.Fatalf("grid %dx%dx%d, wireMin %d, search %d: %v", r.Grid.W, r.Grid.H, nl, wm, search, err)
			}
		}
	})
}

// TestSearchBoundConsistent checks the bound exhaustively on small grids
// with every layer count, wireMin and target: it is 0 at the target,
// equals refBound's whole-node formula everywhere, and never drops by
// more than a legal move costs at least (one via, or layerBase of the
// wire's layer) — so A* with it pops every node at its final distance.
func TestSearchBoundConsistent(t *testing.T) {
	checks := 0
	for layers := 3; layers <= 10; layers++ {
		for _, wh := range [][2]int{{1, 1}, {3, 1}, {1, 3}, {3, 4}} {
			die := geom.Rect{Hi: geom.Point{X: wh[0] * DefaultGCellNM, Y: wh[1] * DefaultGCellNM}}
			r := NewRouter(NewGrid(die, DefaultGCellNM, layers), Options{})
			w := newWorker(r)
			g := r.Grid
			var nodes []Node
			for z := 1; z <= layers; z++ {
				for y := 0; y < g.H; y++ {
					for x := 0; x < g.W; x++ {
						nodes = append(nodes, Node{x, y, z})
					}
				}
			}
			// moves lists u's legal moves with the least each can cost.
			moves := func(u Node, wireMin int) (to []Node, cost []int64) {
				add := func(v Node, c int64) {
					if v.X >= 0 && v.X < g.W && v.Y >= 0 && v.Y < g.H && v.Z >= 1 && v.Z <= layers {
						to, cost = append(to, v), append(cost, c)
					}
				}
				add(Node{u.X, u.Y, u.Z + 1}, viaCost)
				add(Node{u.X, u.Y, u.Z - 1}, viaCost)
				if u.Z >= wireMin {
					for _, d := range []int{-1, 1} {
						if Horizontal(u.Z) {
							add(Node{u.X + d, u.Y, u.Z}, layerBase(u.Z))
						} else {
							add(Node{u.X, u.Y + d, u.Z}, layerBase(u.Z))
						}
					}
				}
				return to, cost
			}
			for wireMin := 2; wireMin <= layers; wireMin++ {
				for _, target := range nodes {
					w.setBound(target, wireMin)
					lb := &w.lb
					h := func(n Node) int64 { return lb.hx(n.X) + lb.hy(n.Y) + lb.hz(n.X, n.Y, n.Z) }
					ref := refBound(w, target, wireMin)
					if h(target) != 0 {
						t.Fatalf("bound at the target %v (wireMin %d) is %d", target, wireMin, h(target))
					}
					for _, u := range nodes {
						if h(u) != ref(u) {
							t.Fatalf("bound at %v toward %v (wireMin %d) is %d, formula says %d", u, target, wireMin, h(u), ref(u))
						}
						to, cost := moves(u, wireMin)
						for i, v := range to {
							checks++
							if h(u) > cost[i]+h(v) {
								t.Fatalf("inconsistent toward %v (wireMin %d): h(%v)=%d > %d + h(%v)=%d",
									target, wireMin, u, h(u), cost[i], v, h(v))
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d moves checked", checks)
}
