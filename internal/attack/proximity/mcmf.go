package proximity

import (
	"context"
	"fmt"
	"math"

	"splitmfg/internal/heapx"
)

// MaxEdgeCapacity is the largest capacity a single MCMF edge may carry.
// The bottleneck search in run starts its scan at this value, so a larger
// capacity could never be pushed anyway — and int32(x) for x beyond
// MaxInt32 would wrap silently. Graph construction validates against it.
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

// mcmf is a small min-cost max-flow solver (successive shortest paths with
// Johnson potentials) used to solve the attacker's joint assignment of sink
// fragments to driver fragments — the "network flow" in the network-flow
// attack. Node and edge indices are int32, which halves the adjacency
// arrays the Dijkstra sweeps walk; newMCMF rejects a graph they cannot
// index.
type mcmf struct {
	n     int
	head  []int32
	to    []int32
	next  []int32
	cap   []int32
	cost  []int64
	edges int
}

// newMCMF returns an empty graph of n nodes with room for `edges` forward
// edges (each brings a residual twin), so graph build appends never
// reallocate. It returns a *SizeError, without allocating, when the
// node or edge indices would not fit int32.
func newMCMF(n, edges int) (*mcmf, error) {
	if n > math.MaxInt32 || edges > math.MaxInt32/2 {
		return nil, &SizeError{Nodes: n, Edges: edges}
	}
	h := make([]int32, n)
	for i := range h {
		h[i] = -1
	}
	m := 2 * edges
	return &mcmf{
		n:    n,
		head: h,
		to:   make([]int32, 0, m),
		next: make([]int32, 0, m),
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
	g.to = append(g.to, int32(v))
	g.cap = append(g.cap, capacity)
	g.cost = append(g.cost, cost)
	g.next = append(g.next, g.head[u])
	g.head[u] = int32(id)
	g.edges++
	g.to = append(g.to, int32(u))
	g.cap = append(g.cap, 0)
	g.cost = append(g.cost, -cost)
	g.next = append(g.next, g.head[v])
	g.head[v] = int32(id + 1)
	g.edges++
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

// run pushes flow from s to t until exhaustion, returning total flow and
// cost. All edge costs must be non-negative.
//
// The context is checked once per augmenting-path iteration (one Dijkstra
// sweep each), so a single large solve — a full-size superblue split can
// run thousands of iterations — stops promptly on cancellation instead of
// running to completion; the flow pushed so far and ctx.Err() are
// returned.
//
// The reduced cost of edge u->v is dist[u] + pot[u] + cost - pot[v], with
// dist[u] + pot[u] summed once per popped node. int64 sums wrap, so any
// grouping of the terms gives the same integer.
//
//smlint:hot
func (g *mcmf) run(ctx context.Context, s, t int) (flow int32, cost int64, err error) {
	const inf = int64(1) << 62
	pot := make([]int64, g.n)
	dist := make([]int64, g.n)
	prevEdge := make([]int32, g.n)
	inTree := make([]bool, g.n)
	// One heap for every augmenting iteration — a large solve runs
	// thousands of Dijkstra sweeps and regrowing the frontier each sweep
	// shows up in heap profiles.
	q := heapx.New[int32](g.n)
	for {
		if err := ctx.Err(); err != nil {
			return flow, cost, err
		}
		for i := range dist {
			dist[i] = inf
			inTree[i] = false
			prevEdge[i] = -1
		}
		dist[s] = 0
		q.Reset()
		q.Push(0, int32(s))
		for q.Len() > 0 {
			_, u := q.Pop()
			if inTree[u] {
				continue
			}
			inTree[u] = true
			du := dist[u] + pot[u]
			for e := g.head[u]; e >= 0; e = g.next[e] {
				if g.cap[e] <= 0 {
					continue
				}
				v := g.to[e]
				nd := du + g.cost[e] - pot[v]
				if nd < dist[v] {
					dist[v] = nd
					prevEdge[v] = e
					q.Push(nd, v)
				}
			}
		}
		if dist[t] >= inf {
			return flow, cost, nil
		}
		for i := range pot {
			if dist[i] < inf {
				pot[i] += dist[i]
			}
		}
		// Bottleneck along the path.
		var push int32 = 1 << 30
		for v := t; v != s; {
			e := prevEdge[v]
			if g.cap[e] < push {
				push = g.cap[e]
			}
			v = int(g.to[e^1])
		}
		for v := t; v != s; {
			e := prevEdge[v]
			g.cap[e] -= push
			g.cap[e^1] += push
			cost += int64(push) * g.cost[e]
			v = int(g.to[e^1])
		}
		flow += push
	}
}
