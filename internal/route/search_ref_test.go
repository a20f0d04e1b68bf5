package route

import (
	"container/heap"
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

// refPQ is a container/heap priority queue of (f-score, node index) — the
// textbook heap whose tie order heapx promises to match.
type refPQ []refPQItem

type refPQItem struct {
	pri  int64
	node int32
}

func (q refPQ) Len() int           { return len(q) }
func (q refPQ) Less(i, j int) bool { return q[i].pri < q[j].pri }
func (q refPQ) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x any)        { *q = append(*q, x.(refPQItem)) }
func (q *refPQ) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// refSegCost is segCost as it was when it took the segment's lower node
// and re-encoded its index.
func refSegCost(w *worker, lo Node, horizontal bool) int64 {
	r := w.r
	i := r.idx(lo)
	var u int32
	if horizontal {
		u = int32(r.usageH[i]) + int32(w.deltaH[i])
	} else {
		u = int32(r.usageV[i]) + int32(w.deltaV[i])
	}
	base := int64(10 + 10*(lo.Z-2))
	if lo.Z < 2 {
		base = 10
	}
	over := int(u) - r.Opt.Capacity
	if over < 0 {
		return base + int64(u)/2
	}
	return base + int64(float64(base)*r.Opt.HistoryCost*float64(over+1))
}

// referenceSearch is searchBounded as it was before nodeState, stride
// indices and the per-axis heuristic: every neighbour is re-encoded with
// Router.idx, its heuristic recomputed from scratch, and the queue is
// container/heap. It reads the same worker state (tree, overlay,
// corridor) and keeps its A* state in rs.
func referenceSearch(w *worker, rs *refScratch, target Node, wireMin int, reg region) ([]Edge, bool) {
	g := w.r.Grid
	loX, loY, hiX, hiY := reg.loX, reg.loY, reg.hiX, reg.hiY

	rs.epoch++
	ep := rs.epoch
	tIdx := w.r.idx(target)

	via := w.r.viaCost()
	h := func(n Node) int64 {
		dx := int64(absInt(n.X - target.X))
		dy := int64(absInt(n.Y - target.Y))
		dz := int64(absInt(n.Z - target.Z))
		return (dx+dy)*10 + dz*via
	}
	seeds := slices.Clone(w.treeList)
	slices.Sort(seeds)
	q := &refPQ{}
	for _, t := range seeds {
		rs.dist[t] = 0
		rs.visitID[t] = ep
		rs.from[t] = -1
		heap.Push(q, refPQItem{h(w.r.node(t)), t})
	}
	relax := func(cur int32, next Node, cost int64) {
		ni := w.r.idx(next)
		nd := rs.dist[cur] + cost
		if rs.visitID[ni] != ep || nd < rs.dist[ni] {
			rs.visitID[ni] = ep
			rs.dist[ni] = nd
			rs.from[ni] = cur
			heap.Push(q, refPQItem{nd + h(next), ni})
		}
	}
	for q.Len() > 0 {
		it := heap.Pop(q).(refPQItem)
		cur := it.node
		if rs.visitID[cur] != ep {
			continue
		}
		n := w.r.node(cur)
		if it.pri > rs.dist[cur]+h(n) {
			continue
		}
		if cur == tIdx {
			edges := rs.path[:0]
			for i := cur; rs.from[i] >= 0; i = rs.from[i] {
				edges = append(edges, Edge{A: w.r.node(rs.from[i]), B: w.r.node(i)})
			}
			rs.path = edges
			return edges, true
		}
		if n.Z < g.Layers {
			relax(cur, Node{n.X, n.Y, n.Z + 1}, via)
		}
		if n.Z > 1 {
			relax(cur, Node{n.X, n.Y, n.Z - 1}, via)
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

// TestSearchMatchesReference pins searchBounded to referenceSearch on
// randomized cases: grids down to one gcell wide or tall, detour regions
// clamped at the die edge, shared usage and overlay deltas straddling
// capacity, the default or an escalated history cost, wireMin 2–4,
// multi-node trees as seeds, and corridor masks on or off. Several
// searches share each worker, so stale epochs are exercised too. Both
// must find the same path — edge for edge — or both fail.
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
		die := geom.Rect{Hi: geom.Point{X: gw * DefaultGCellNM, Y: gh * DefaultGCellNM}}
		grid := NewGrid(die, DefaultGCellNM, 3+rng.Intn(8))
		hist := 2.0
		for k := rng.Intn(4); k > 0; k-- {
			hist *= 1.8 // NegotiateReroute's escalation
		}
		r := NewRouter(grid, Options{Capacity: 2 + rng.Intn(5), HistoryCost: hist})
		capacity := r.Opt.Capacity
		for i := range r.usageH {
			if rng.Intn(3) > 0 {
				r.usageH[i] = int16(max(0, capacity+rng.Intn(7)-4))
				r.usageV[i] = int16(max(0, capacity+rng.Intn(7)-4))
			}
		}
		w := newWorker(r)
		for i := range w.deltaH {
			if rng.Intn(4) == 0 {
				w.deltaH[i] = int16(rng.Intn(5) - 2)
				w.deltaV[i] = int16(rng.Intn(5) - 2)
			}
		}
		rs := newRefScratch(len(r.usageH))
		randNode := func() Node {
			return Node{X: rng.Intn(grid.W), Y: rng.Intn(grid.H), Z: 1 + rng.Intn(grid.Layers)}
		}
		for search := 0; search < 4; search++ {
			w.treeEpoch++
			w.treeList = w.treeList[:0]
			for k := 1 + rng.Intn(6); k > 0; k-- {
				w.treeAdd(r.idx(randNode()))
			}
			target := randNode()
			if rng.Intn(10) == 0 {
				target = r.node(w.treeList[0])
			}
			wireMin := 2 + rng.Intn(3)
			reg := w.searchRegion(target, rng.Intn(13))
			if rng.Intn(3) == 0 {
				// A corridor: a random subset of the planner's tiles
				// (always the target's) over its own rectangle.
				tw := (grid.W + waveTileGCells - 1) / waveTileGCells
				th := (grid.H + waveTileGCells - 1) / waveTileGCells
				tiles := []int32{int32((target.Y/waveTileGCells)*tw + target.X/waveTileGCells)}
				for ti := 0; ti < tw*th; ti++ {
					if rng.Intn(2) == 0 {
						tiles = append(tiles, int32(ti))
					}
				}
				reg = region{
					loX: rng.Intn(target.X + 1), loY: rng.Intn(target.Y + 1),
					hiX: target.X + rng.Intn(grid.W-target.X), hiY: target.Y + rng.Intn(grid.H-target.Y),
				}
				w.setCorridor(tw, th, tiles, reg)
				corridors++
			}
			got, ok := w.searchBounded(target, wireMin, reg)
			got = slices.Clone(got)
			want, wantOK := referenceSearch(w, rs, target, wireMin, reg)
			corr := w.corrOn
			w.clearCorridor()
			if ok != wantOK || !slices.Equal(got, want) {
				t.Fatalf("trial %d search %d (grid %dx%dx%d, wireMin %d, history %g, region %+v, corridor %v): found=%v %v, reference found=%v %v",
					trial, search, grid.W, grid.H, grid.Layers, wireMin, hist, reg, corr, ok, got, wantOK, want)
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
