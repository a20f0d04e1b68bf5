package proximity

import (
	"context"
	"fmt"
	"math"

	"splitmfg/internal/heapx"
)

// MaxEdgeCapacity is the largest capacity a single MCMF edge may carry.
// The bottleneck scan in run's blocking flow starts at this value, so a
// larger capacity could never be pushed anyway — and int32(x) for x
// beyond MaxInt32 would wrap silently. Graph construction validates
// against it.
const MaxEdgeCapacity = 1 << 30

// CapacityError reports an edge capacity outside [0, MaxEdgeCapacity]
// at graph-build time. Full-size superblue fan-out counts can approach
// the int32 range; failing typed and early beats wrapping silently into
// a negative capacity the solver would treat as a saturated edge.
type CapacityError struct {
	Capacity int
}

func (e *CapacityError) Error() string {
	return fmt.Sprintf("proximity: mcmf edge capacity %d outside [0, %d]", e.Capacity, MaxEdgeCapacity)
}

// SizeError reports a flow graph whose nodes or edges (each forward edge
// brings a residual twin) would not fit the solver's int32 indices. It
// is returned before any edge array is allocated.
type SizeError struct {
	Nodes, Edges int
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("proximity: mcmf graph of %d nodes and %d edges exceeds int32 indices", e.Nodes, e.Edges)
}

// mcmf is a small min-cost max-flow solver (primal-dual: one Dijkstra
// sweep per cost level, a Dinic blocking flow within it) used to solve
// the attacker's joint assignment of sink fragments to driver fragments —
// the "network flow" in the network-flow attack. Node and edge indices
// are int32, which halves the arrays the sweeps walk; newMCMF rejects a
// graph they cannot index.
//
// The graph is an edge list: edge e runs from to[e^1] to to[e], and e^1
// is its residual twin. run freezes it into CSR adjacency for the solve
// and writes each edge's residual capacity back to cap when it returns.
type mcmf struct {
	n      int
	to     []int32
	cap    []int32
	cost   []int64
	edges  int
	sweeps int // Dijkstra sweeps run so far
}

// newMCMF returns an empty graph of n nodes with room for `edges` forward
// edges (each brings a residual twin), so graph build appends never
// reallocate. It returns a *SizeError, without allocating, when the
// node or edge indices would not fit int32.
func newMCMF(n, edges int) (*mcmf, error) {
	if n > math.MaxInt32 || edges > math.MaxInt32/2 {
		return nil, &SizeError{Nodes: n, Edges: edges}
	}
	m := 2 * edges
	return &mcmf{
		n:    n,
		to:   make([]int32, 0, m),
		cap:  make([]int32, 0, m),
		cost: make([]int64, 0, m),
	}, nil
}

// addEdge inserts a directed edge u->v and its residual twin, returning the
// forward edge index. Callers with capacities of unvalidated magnitude go
// through addEdgeInt instead.
//
//smlint:hot
func (g *mcmf) addEdge(u, v int, capacity int32, cost int64) int {
	id := g.edges
	g.to = append(g.to, int32(v), int32(u))
	g.cap = append(g.cap, capacity, 0)
	g.cost = append(g.cost, cost, -cost)
	g.edges += 2
	return id
}

// addEdgeInt validates an int capacity and inserts the edge, returning a
// *CapacityError for capacities int32 truncation would corrupt (negative
// after wrap) or the bottleneck scan would never honor (> MaxEdgeCapacity).
func (g *mcmf) addEdgeInt(u, v int, capacity int, cost int64) (int, error) {
	if capacity < 0 || capacity > MaxEdgeCapacity {
		return -1, &CapacityError{Capacity: capacity}
	}
	return g.addEdge(u, v, int32(capacity), cost), nil
}

// arc is one residual arc of the frozen graph: its head node, the
// position of its twin, and its cost.
type arc struct {
	to, rev int32
	cost    int64
}

// residual is the CSR form of a graph that one solve walks: node u's
// arcs are arcs[start[u]:start[u+1]], in descending edge ID — the order
// in which a forward-star list with head insertion walks them — and
// cap[p] is arc p's residual capacity. Edge e is arc pos[e].
type residual struct {
	start []int32
	arcs  []arc
	cap   []int32
	pos   []int32
}

// freeze lays g's edges out as a residual graph.
func (g *mcmf) freeze() residual {
	r := residual{
		start: make([]int32, g.n+1),
		arcs:  make([]arc, g.edges),
		cap:   make([]int32, g.edges),
		pos:   make([]int32, g.edges),
	}
	// Count each node's arcs, turn the counts into end offsets, then fill
	// every node's run from its end in ascending edge ID, which leaves
	// start[u] at the run's first arc and the run in descending edge ID.
	for e := 0; e < g.edges; e++ {
		r.start[g.to[e^1]]++
	}
	var sum int32
	for u := range r.start {
		sum += r.start[u]
		r.start[u] = sum
	}
	for e := 0; e < g.edges; e++ {
		u := g.to[e^1]
		r.start[u]--
		r.pos[e] = r.start[u]
	}
	for e := 0; e < g.edges; e++ {
		p := r.pos[e]
		r.arcs[p] = arc{to: g.to[e], rev: r.pos[e^1], cost: g.cost[e]}
		r.cap[p] = g.cap[e]
	}
	return r
}

// run pushes a minimum-cost maximum flow from s to t, returning total
// flow and cost, and leaves every edge's residual capacity in g.cap. All
// edge costs must be non-negative.
//
// It is the primal-dual method (Ahuja, Magnanti & Orlin, Network Flows,
// ch. 9). Each sweep runs a Dijkstra over reduced costs that stops when
// it pops t, then adds min(dist[v], dist[t]) to every potential: every
// residual reduced cost stays non-negative and every shortest s–t path
// now costs zero. A Dinic max-flow (BFS levels plus a current-arc DFS)
// over the residual arcs of zero reduced cost then saturates all of
// those paths at once, so the next sweep's s–t distance is strictly
// larger. A solve takes one sweep per distinct augmenting-path cost plus
// the last sweep that finds t unreachable, not one per unit of flow.
//
// A phase changes capacities, never potentials, so right after each
// potential update the sweep collects every node's zero-reduced-cost
// arcs, in CSR order, into one list — the admissible arcs — and its
// phases' BFS and DFS walk only that list. An arc's twin has reduced
// cost zero exactly when the arc does, so the list already holds every
// residual arc a phase can open. On the attack's graphs it holds about
// one arc in twelve.
//
// Which equal-distance node the Dijkstra settles first does not matter:
// a node at distance dist[t] gets the potential dist[t] whether it was
// settled before t popped or not, so the potentials, the admissible
// arcs and every phase are the same under any tie order of the heap. Of
// heapx.Heap's users, only the coarse planner depends on its textbook
// tie order.
//
// The context is checked once per Dijkstra sweep, so a single large
// solve — a full-size superblue split spans many cost levels — stops
// promptly on cancellation instead of running to completion; the flow
// pushed so far and ctx.Err() are returned.
//
// The reduced cost of arc u->v is cost + pot[u] - pot[v]; Dijkstra sums
// dist[u] + pot[u] once per popped node. int64 sums wrap, so any
// grouping of the terms gives the same integer.
func (g *mcmf) run(ctx context.Context, s, t int) (flow int32, cost int64, err error) {
	r := g.freeze()
	flow, cost, err = g.solve(ctx, &r, s, t)
	for e, p := range r.pos {
		g.cap[e] = r.cap[p]
	}
	return flow, cost, err
}

// solve is run's body over the frozen graph r.
//
//smlint:hot
func (g *mcmf) solve(ctx context.Context, r *residual, s, t int) (flow int32, cost int64, err error) {
	const inf = int64(1) << 62
	start, arcs, rcap := r.start, r.arcs, r.cap
	pot := make([]int64, g.n)
	dist := make([]int64, g.n)
	done := make([]bool, g.n)
	level := make([]int32, g.n)
	// This sweep's admissible arcs: node u's are adm[admStart[u]:admStart[u+1]].
	adm := make([]int32, 0, len(arcs))
	admStart := make([]int32, g.n+1)
	cur := make([]int32, g.n)      // Dinic's current arc per node, into adm
	queue := make([]int32, 0, g.n) // BFS order
	path := make([]int32, 0, g.n)  // arcs of the DFS path from s
	q := heapx.New[int32](g.n)     // one heap for every sweep
	for {
		if err := ctx.Err(); err != nil {
			return flow, cost, err
		}
		g.sweeps++
		for i := range dist {
			dist[i] = inf
			done[i] = false
		}
		dist[s] = 0
		q.Reset()
		q.Push(0, int32(s))
		for q.Len() > 0 {
			_, u := q.Pop()
			if done[u] {
				continue
			}
			done[u] = true
			if int(u) == t {
				break
			}
			du := dist[u] + pot[u]
			for p := start[u]; p < start[u+1]; p++ {
				if rcap[p] <= 0 {
					continue
				}
				v := arcs[p].to
				nd := du + arcs[p].cost - pot[v]
				if nd < dist[v] {
					dist[v] = nd
					q.Push(nd, v)
				}
			}
		}
		dt := dist[t]
		if dt >= inf {
			return flow, cost, nil
		}
		// Nodes not settled before t hold tentative distances >= dt, so
		// capping at dt keeps every residual reduced cost non-negative.
		for i := range pot {
			pot[i] += min(dist[i], dt)
		}
		adm = adm[:0]
		for u := 0; u < g.n; u++ {
			admStart[u] = int32(len(adm))
			pu := pot[u]
			for p := start[u]; p < start[u+1]; p++ {
				if arcs[p].cost+pu-pot[arcs[p].to] == 0 {
					adm = append(adm, p)
				}
			}
		}
		admStart[g.n] = int32(len(adm))

		// Dinic phases over the admissible arcs until no s–t path with
		// residual capacity is left among them.
		for {
			for i := range level {
				level[i] = -1
			}
			level[s] = 0
			queue = append(queue[:0], int32(s))
			for h := 0; h < len(queue) && level[t] < 0; h++ {
				u := queue[h]
				for _, p := range adm[admStart[u]:admStart[u+1]] {
					if v := arcs[p].to; rcap[p] > 0 && level[v] < 0 {
						level[v] = level[u] + 1
						queue = append(queue, v)
					}
				}
			}
			if level[t] < 0 {
				break
			}
			// Blocking flow: advance along each node's current arc,
			// retreat (dropping that arc) from dead ends, push the path's
			// bottleneck on reaching t and start again from s.
			copy(cur, admStart)
			path = path[:0]
			u := int32(s)
			for {
				if int(u) == t {
					var push int32 = MaxEdgeCapacity
					for _, p := range path {
						push = min(push, rcap[p])
					}
					for _, p := range path {
						rcap[p] -= push
						rcap[arcs[p].rev] += push
						cost += int64(push) * arcs[p].cost
					}
					flow += push
					path = path[:0]
					u = int32(s)
					continue
				}
				i, end := cur[u], admStart[u+1]
				for ; i < end; i++ {
					if p := adm[i]; rcap[p] > 0 && level[arcs[p].to] == level[u]+1 {
						break
					}
				}
				cur[u] = i
				if i < end {
					p := adm[i]
					path = append(path, p)
					u = arcs[p].to
					continue
				}
				if int(u) == s {
					break
				}
				back := path[len(path)-1]
				path = path[:len(path)-1]
				u = arcs[arcs[back].rev].to
				cur[u]++
			}
		}
	}
}
