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
// are int32, which halves the adjacency arrays the sweeps walk; newMCMF
// rejects a graph they cannot index.
type mcmf struct {
	n      int
	head   []int32
	to     []int32
	next   []int32
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

// run pushes a minimum-cost maximum flow from s to t, returning total
// flow and cost. All edge costs must be non-negative.
//
// It is the primal-dual method (Ahuja, Magnanti & Orlin, Network Flows,
// ch. 9). Each sweep runs a Dijkstra over reduced costs that stops when
// it pops t, then adds min(dist[v], dist[t]) to every potential: every
// residual reduced cost stays non-negative and every shortest s–t path
// now costs zero. A Dinic max-flow (BFS levels plus a current-arc DFS)
// over the residual edges of zero reduced cost then saturates all of
// those paths at once, so the next sweep's s–t distance is strictly
// larger. A solve takes one sweep per distinct augmenting-path cost plus
// the last sweep that finds t unreachable, not one per unit of flow.
//
// The context is checked once per Dijkstra sweep, so a single large
// solve — a full-size superblue split spans many cost levels — stops
// promptly on cancellation instead of running to completion; the flow
// pushed so far and ctx.Err() are returned.
//
// The reduced cost of edge u->v is cost + pot[u] - pot[v]; Dijkstra sums
// dist[u] + pot[u] once per popped node. int64 sums wrap, so any
// grouping of the terms gives the same integer.
//
//smlint:hot
func (g *mcmf) run(ctx context.Context, s, t int) (flow int32, cost int64, err error) {
	const inf = int64(1) << 62
	pot := make([]int64, g.n)
	dist := make([]int64, g.n)
	done := make([]bool, g.n)
	level := make([]int32, g.n)
	arc := make([]int32, g.n)      // Dinic's current arc per node
	queue := make([]int32, 0, g.n) // BFS order
	path := make([]int32, 0, g.n)  // edges of the DFS path from s
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
			for e := g.head[u]; e >= 0; e = g.next[e] {
				if g.cap[e] <= 0 {
					continue
				}
				v := g.to[e]
				nd := du + g.cost[e] - pot[v]
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

		// Dinic phases over the zero-reduced-cost residual edges until no
		// such s–t path is left.
		for {
			for i := range level {
				level[i] = -1
			}
			level[s] = 0
			queue = append(queue[:0], int32(s))
			for h := 0; h < len(queue) && level[t] < 0; h++ {
				u := queue[h]
				for e := g.head[u]; e >= 0; e = g.next[e] {
					v := g.to[e]
					if g.cap[e] > 0 && level[v] < 0 && g.cost[e]+pot[u]-pot[v] == 0 {
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
			copy(arc, g.head)
			path = path[:0]
			u := int32(s)
			for {
				if int(u) == t {
					var push int32 = MaxEdgeCapacity
					for _, e := range path {
						push = min(push, g.cap[e])
					}
					for _, e := range path {
						g.cap[e] -= push
						g.cap[e^1] += push
						cost += int64(push) * g.cost[e]
					}
					flow += push
					path = path[:0]
					u = int32(s)
					continue
				}
				e := arc[u]
				for ; e >= 0; e = g.next[e] {
					v := g.to[e]
					if g.cap[e] > 0 && level[v] == level[u]+1 && g.cost[e]+pot[u]-pot[v] == 0 {
						break
					}
				}
				arc[u] = e
				if e >= 0 {
					path = append(path, e)
					u = g.to[e]
					continue
				}
				if int(u) == s {
					break
				}
				back := path[len(path)-1]
				path = path[:len(path)-1]
				u = g.to[back^1]
				arc[u] = g.next[back]
			}
		}
	}
}
