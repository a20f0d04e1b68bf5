package proximity

import (
	"container/heap"
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

// mustMCMF is newMCMF for graphs known to fit int32 indices.
func mustMCMF(n, edges int) *mcmf {
	g, err := newMCMF(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// bigBipartite builds a dense synthetic assignment instance: `side` drivers
// and `side` sinks with every pairing available at a random cost, so the
// solve needs `side` augmenting-path iterations to saturate.
func bigBipartite(side int, seed int64) (g *mcmf, s, t int) {
	rng := rand.New(rand.NewSource(seed))
	s, t = 0, 1+2*side
	g = mustMCMF(t+1, side*side+2*side)
	for d := 0; d < side; d++ {
		g.addEdge(s, 1+d, 1, 0)
		for k := 0; k < side; k++ {
			g.addEdge(1+d, 1+side+k, 1, int64(rng.Intn(1000)+1))
		}
	}
	for k := 0; k < side; k++ {
		g.addEdge(1+side+k, t, 1, 0)
	}
	return g, s, t
}

// errAfterCtx is a context whose Err flips to Canceled after a fixed
// number of polls — a deterministic stand-in for "the caller cancelled
// while the solver was deep inside one large solve".
type errAfterCtx struct {
	context.Context
	polls, limit int
}

func (c *errAfterCtx) Err() error {
	c.polls++
	if c.polls > c.limit {
		return context.Canceled
	}
	return nil
}

func TestMCMFCancelledMidSolve(t *testing.T) {
	// 300 augmenting paths are needed; cancellation is observed on poll 4.
	// Before ctx was threaded into run, the solver only ever noticed
	// cancellation after full exhaustion.
	g, s, tt := bigBipartite(300, 1)
	ctx := &errAfterCtx{Context: context.Background(), limit: 3}
	flow, _, err := g.run(ctx, s, tt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run err = %v, want context.Canceled", err)
	}
	if flow != 3 {
		t.Fatalf("run pushed %d paths before observing cancellation, want 3", flow)
	}
}

func TestMCMFCancelledUpFrontReturnsImmediately(t *testing.T) {
	g, s, tt := bigBipartite(400, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	flow, _, err := g.run(ctx, s, tt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run err = %v, want context.Canceled", err)
	}
	if flow != 0 {
		t.Fatalf("pre-cancelled run pushed flow %d, want 0", flow)
	}
	// Generous bound: a full 400-path dense solve takes orders of
	// magnitude longer than one ctx check.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("pre-cancelled run took %v", elapsed)
	}
}

func TestMCMFRunMatchesUncancelled(t *testing.T) {
	// Threading the context must not change the solve itself.
	ga, s, tt := bigBipartite(60, 3)
	gb, _, _ := bigBipartite(60, 3)
	fa, ca, err := ga.run(context.Background(), s, tt)
	if err != nil {
		t.Fatal(err)
	}
	fb, cb, err := gb.run(&errAfterCtx{Context: context.Background(), limit: 1 << 30}, s, tt)
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb || ca != cb {
		t.Fatalf("ctx-aware run diverged: flow %d/%d cost %d/%d", fa, fb, ca, cb)
	}
	if fa != 60 {
		t.Fatalf("dense bipartite instance should saturate: flow %d, want 60", fa)
	}
}

func TestAddEdgeIntRejectsOverflow(t *testing.T) {
	g := mustMCMF(2, 3)
	var capErr *CapacityError
	if _, err := g.addEdgeInt(0, 1, MaxEdgeCapacity+1, 0); !errors.As(err, &capErr) {
		t.Fatalf("capacity %d: err = %v, want *CapacityError", MaxEdgeCapacity+1, err)
	}
	if capErr.Capacity != MaxEdgeCapacity+1 {
		t.Fatalf("CapacityError.Capacity = %d, want %d", capErr.Capacity, MaxEdgeCapacity+1)
	}
	if _, err := g.addEdgeInt(0, 1, -1, 0); !errors.As(err, &capErr) {
		t.Fatalf("negative capacity: err = %v, want *CapacityError", err)
	}
	// int32 wrap-around magnitude — the silent-corruption case the guard
	// exists for: int32(1<<31) is negative.
	if _, err := g.addEdgeInt(0, 1, 1<<31, 0); !errors.As(err, &capErr) {
		t.Fatalf("capacity 1<<31: err = %v, want *CapacityError", err)
	}
}

func TestAddEdgeIntAcceptsFullRange(t *testing.T) {
	g := mustMCMF(2, 3)
	for _, c := range []int{0, 1, MaxEdgeCapacity} {
		id, err := g.addEdgeInt(0, 1, c, 7)
		if err != nil {
			t.Fatalf("capacity %d rejected: %v", c, err)
		}
		if got := g.cap[id]; got != int32(c) {
			t.Fatalf("capacity %d stored as %d", c, got)
		}
	}
}

func TestAttackCancellationSurfacesError(t *testing.T) {
	d, sv := buildSplit(t, "c880", 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Attack(ctx, d, sv, DefaultOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Attack err = %v, want context.Canceled", err)
	}
}

// TestNewMCMFRejectsOversizedGraph: an edge count whose indices (with
// residual twins) overflow int32 must fail typed before any edge array
// is allocated — the only allocation allowed is the error itself.
func TestNewMCMFRejectsOversizedGraph(t *testing.T) {
	var err error
	allocs := testing.AllocsPerRun(1, func() {
		_, err = newMCMF(3, math.MaxInt32+1)
	})
	var sizeErr *SizeError
	if !errors.As(err, &sizeErr) || sizeErr.Edges != math.MaxInt32+1 || sizeErr.Nodes != 3 {
		t.Fatalf("newMCMF(3, MaxInt32+1) err = %v, want *SizeError naming 3 nodes and %d edges", err, math.MaxInt32+1)
	}
	if allocs > 1 {
		t.Fatalf("rejecting an oversized graph allocated %.0f times, want at most the error", allocs)
	}
	// The first count whose twins no longer fit, and a node count beyond
	// int32, fail the same way.
	if _, err := newMCMF(3, math.MaxInt32/2+1); !errors.As(err, &sizeErr) {
		t.Fatalf("newMCMF(3, MaxInt32/2+1) err = %v, want *SizeError", err)
	}
	if _, err := newMCMF(math.MaxInt32+1, 0); !errors.As(err, &sizeErr) {
		t.Fatalf("newMCMF(MaxInt32+1, 0) err = %v, want *SizeError", err)
	}
}

// refMCMF is the solver as it was before its indices became int32: []int
// adjacency, the reduced cost summed inside the edge loop, and
// container/heap — the textbook heap whose tie order heapx matches.
type refMCMF struct {
	n              int
	head, to, next []int
	cap            []int32
	cost           []int64
}

func newRefMCMF(n int) *refMCMF {
	g := &refMCMF{n: n, head: make([]int, n)}
	for i := range g.head {
		g.head[i] = -1
	}
	return g
}

func (g *refMCMF) addEdge(u, v int, capacity int32, cost int64) {
	id := len(g.to)
	g.to = append(g.to, v, u)
	g.cap = append(g.cap, capacity, 0)
	g.cost = append(g.cost, cost, -cost)
	g.next = append(g.next, g.head[u], g.head[v])
	g.head[u], g.head[v] = id, id+1
}

type refItem struct {
	pri  int64
	node int
}

type refPQ []refItem

func (q refPQ) Len() int           { return len(q) }
func (q refPQ) Less(i, j int) bool { return q[i].pri < q[j].pri }
func (q refPQ) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x any)        { *q = append(*q, x.(refItem)) }
func (q *refPQ) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

func (g *refMCMF) run(s, t int) (flow int32, cost int64) {
	const inf = int64(1) << 62
	pot := make([]int64, g.n)
	dist := make([]int64, g.n)
	prevEdge := make([]int, g.n)
	inTree := make([]bool, g.n)
	for {
		for i := range dist {
			dist[i] = inf
			inTree[i] = false
			prevEdge[i] = -1
		}
		dist[s] = 0
		q := &refPQ{{0, s}}
		for q.Len() > 0 {
			u := heap.Pop(q).(refItem).node
			if inTree[u] {
				continue
			}
			inTree[u] = true
			for e := g.head[u]; e >= 0; e = g.next[e] {
				if g.cap[e] <= 0 {
					continue
				}
				v := g.to[e]
				nd := dist[u] + g.cost[e] + pot[u] - pot[v]
				if nd < dist[v] {
					dist[v] = nd
					prevEdge[v] = e
					heap.Push(q, refItem{nd, v})
				}
			}
		}
		if dist[t] >= inf {
			return flow, cost
		}
		for i := range pot {
			if dist[i] < inf {
				pot[i] += dist[i]
			}
		}
		var push int32 = 1 << 30
		for v := t; v != s; v = g.to[prevEdge[v]^1] {
			if c := g.cap[prevEdge[v]]; c < push {
				push = c
			}
		}
		for v := t; v != s; v = g.to[prevEdge[v]^1] {
			e := prevEdge[v]
			g.cap[e] -= push
			g.cap[e^1] += push
			cost += int64(push) * g.cost[e]
		}
		flow += push
	}
}

// TestMCMFMatchesReference pins the solver to its pre-int32 body on
// random bipartite graphs shaped like the attack's: source -> driver and
// sink -> target edges at cost 0, driver -> sink candidates at costs 1–5
// (so most costs tie and tie order decides the flow), every capacity
// 1–3. Flow, cost and the residual capacity of every edge must match.
func TestMCMFMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 3000; trial++ {
		drivers, sinks := 1+rng.Intn(12), 1+rng.Intn(16)
		s, tt := 0, 1+drivers+sinks
		type edge struct {
			u, v int
			cap  int32
			cost int64
		}
		var edges []edge
		for d := 0; d < drivers; d++ {
			edges = append(edges, edge{s, 1 + d, int32(1 + rng.Intn(3)), 0})
		}
		density := 1 + rng.Intn(4)
		for d := 0; d < drivers; d++ {
			for k := 0; k < sinks; k++ {
				if rng.Intn(4) < density {
					edges = append(edges, edge{1 + d, 1 + drivers + k, int32(1 + rng.Intn(3)), int64(1 + rng.Intn(5))})
				}
			}
		}
		for k := 0; k < sinks; k++ {
			edges = append(edges, edge{1 + drivers + k, tt, int32(1 + rng.Intn(3)), 0})
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })

		g := mustMCMF(tt+1, len(edges))
		ref := newRefMCMF(tt + 1)
		for _, e := range edges {
			g.addEdge(e.u, e.v, e.cap, e.cost)
			ref.addEdge(e.u, e.v, e.cap, e.cost)
		}
		flow, cost, err := g.run(context.Background(), s, tt)
		if err != nil {
			t.Fatal(err)
		}
		wantFlow, wantCost := ref.run(s, tt)
		if flow != wantFlow || cost != wantCost {
			t.Fatalf("trial %d: flow %d cost %d, reference flow %d cost %d", trial, flow, cost, wantFlow, wantCost)
		}
		for e := range ref.cap {
			if g.cap[e] != ref.cap[e] {
				t.Fatalf("trial %d: edge %d residual capacity %d, reference %d", trial, e, g.cap[e], ref.cap[e])
			}
		}
	}
}
