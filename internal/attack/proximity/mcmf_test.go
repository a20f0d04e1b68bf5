package proximity

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
// and `side` sinks with every pairing available at a random cost 1–1000,
// so the flow of `side` spans many cost levels.
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
	// A flow of 300 spans many cost levels; cancellation is observed on
	// poll 4, after three sweeps. Before ctx was threaded into run, the
	// solver only ever noticed cancellation after full exhaustion.
	g, s, tt := bigBipartite(300, 1)
	ctx := &errAfterCtx{Context: context.Background(), limit: 3}
	flow, _, err := g.run(ctx, s, tt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run err = %v, want context.Canceled", err)
	}
	if g.sweeps != 3 {
		t.Fatalf("run finished %d sweeps before observing cancellation, want 3", g.sweeps)
	}
	if flow <= 0 || flow >= 300 {
		t.Fatalf("run pushed flow %d before observing cancellation, want some but less than the full 300", flow)
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

// refMCMF is the solver as it was before the primal-dual method:
// successive shortest paths, one full Dijkstra sweep per augmenting path,
// with []int adjacency, the reduced cost summed inside the edge loop, and
// container/heap — the textbook heap whose tie order heapx matches.
type refMCMF struct {
	n              int
	head, to, next []int
	cap            []int32
	cost           []int64
	paths          []int64 // cost of each augmenting path, in push order
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
		var pathCost int64
		for v := t; v != s; v = g.to[prevEdge[v]^1] {
			if c := g.cap[prevEdge[v]]; c < push {
				push = c
			}
			pathCost += g.cost[prevEdge[v]]
		}
		for v := t; v != s; v = g.to[prevEdge[v]^1] {
			e := prevEdge[v]
			g.cap[e] -= push
			g.cap[e^1] += push
			cost += int64(push) * g.cost[e]
		}
		flow += push
		g.paths = append(g.paths, pathCost)
	}
}

// testEdge is one forward edge of a test graph.
type testEdge struct {
	u, v int
	cap  int32
	cost int64
}

// solveBoth runs the solver and refMCMF on the same n-node graph and
// returns an error unless flow and cost agree and the solver's residual
// graph certifies that its flow is a min-cost one.
func solveBoth(n, s, t int, edges []testEdge) error {
	g := mustMCMF(n, len(edges))
	ref := newRefMCMF(n)
	for _, e := range edges {
		g.addEdge(e.u, e.v, e.cap, e.cost)
		ref.addEdge(e.u, e.v, e.cap, e.cost)
	}
	orig := slices.Clone(g.cap)
	flow, cost, err := g.run(context.Background(), s, t)
	if err != nil {
		return err
	}
	wantFlow, wantCost := ref.run(s, t)
	if flow != wantFlow || cost != wantCost {
		return fmt.Errorf("flow %d cost %d, reference flow %d cost %d", flow, cost, wantFlow, wantCost)
	}
	return certify(g, orig, s, t, flow)
}

// certify checks a finished solve of g, whose capacities were orig
// before it: every residual capacity lies in [0, original] and each
// forward edge and its twin still sum to the original, flow is conserved
// at every node but s and t, and the residual graph has no negative-cost
// cycle (Bellman–Ford) — the optimality condition of a min-cost flow.
// With flow equal to the reference's maximum, the flow is a min-cost
// maximum flow whichever equal-cost paths the solver chose.
func certify(g *mcmf, orig []int32, s, t int, flow int32) error {
	excess := make([]int64, g.n)
	for e := 0; e < g.edges; e += 2 {
		c := orig[e]
		if g.cap[e] < 0 || g.cap[e] > c || g.cap[e^1] < 0 || g.cap[e^1] > c || g.cap[e]+g.cap[e^1] != c {
			return fmt.Errorf("edge %d: residual capacities %d and %d, original %d", e, g.cap[e], g.cap[e^1], c)
		}
		f := int64(c - g.cap[e])
		excess[g.to[e^1]] -= f
		excess[g.to[e]] += f
	}
	for v, x := range excess {
		want := int64(0)
		switch v {
		case s:
			want = -int64(flow)
		case t:
			want = int64(flow)
		}
		if x != want {
			return fmt.Errorf("node %d: net inflow %d, want %d", v, x, want)
		}
	}
	// Bellman–Ford from a virtual source at distance 0 to every node: a
	// relaxation still possible after n+1 passes lies on a negative cycle.
	dist := make([]int64, g.n)
	for pass := 0; pass <= g.n; pass++ {
		relaxed := false
		for e := 0; e < g.edges; e++ {
			if g.cap[e] <= 0 {
				continue
			}
			u, v := g.to[e^1], g.to[e]
			if d := dist[u] + g.cost[e]; d < dist[v] {
				dist[v] = d
				relaxed = true
			}
		}
		if !relaxed {
			return nil
		}
	}
	return errors.New("residual graph has a negative-cost cycle: the flow is not min-cost")
}

// attackShaped draws a bipartite graph shaped like the attack's from
// next, which returns values in [0, 256): source -> driver and sink ->
// target edges at cost 0, driver -> sink candidates at costs 0–7 (so
// costs tie and the solver's tie order decides the flow), every capacity
// 1–3.
func attackShaped(next func() int) (n, s, t int, edges []testEdge) {
	drivers, sinks := 1+next()%12, 1+next()%16
	s, t = 0, 1+drivers+sinks
	for d := 0; d < drivers; d++ {
		edges = append(edges, testEdge{s, 1 + d, int32(1 + next()%3), 0})
	}
	density := 1 + next()%4
	for d := 0; d < drivers; d++ {
		for k := 0; k < sinks; k++ {
			if b := next(); b%4 < density {
				edges = append(edges, testEdge{1 + d, 1 + drivers + k, int32(1 + (b/4)%3), int64((b / 16) % 8)})
			}
		}
	}
	for k := 0; k < sinks; k++ {
		edges = append(edges, testEdge{1 + drivers + k, t, int32(1 + next()%3), 0})
	}
	return t + 1, s, t, edges
}

// TestMCMFMatchesReference pins the solver to the successive-shortest-path
// reference on random attack-shaped graphs with shuffled edge order:
// equal flow and cost, and an optimality certificate for the residual
// graph. Residual capacities may differ from the reference's where
// equal-cost paths tie.
func TestMCMFMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 3000; trial++ {
		n, s, tt, edges := attackShaped(func() int { return rng.Intn(256) })
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		if err := solveBoth(n, s, tt, edges); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// FuzzMCMFMatchesReference builds an attack-shaped graph from the fuzz
// bytes (zero once they run out) and checks it as
// TestMCMFMatchesReference does.
func FuzzMCMFMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{11, 15, 2, 1, 0, 3, 255, 17, 64, 128, 5, 9, 200, 33, 47, 81})
	f.Add([]byte{3, 3, 0, 0, 0, 3, 1, 5, 9, 13, 17, 21, 25, 29, 33, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		if err := solveBoth(attackShaped(next)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMCMFSweepsPerCostLevel pins the primal-dual solver's sweep count on
// the c3540 M3 attack's flow graph: one Dijkstra sweep per distinct
// augmenting-path cost plus the sweep that finds t unreachable, where the
// successive-shortest-path reference needs one per augmenting path — one
// per sink.
func TestMCMFSweepsPerCostLevel(t *testing.T) {
	d, sv := buildSplit(t, "c3540", 3)
	a, _, err := prepare(context.Background(), d, sv, DefaultOptions())
	if err != nil || a == nil {
		t.Fatalf("prepare: %v (attack %v)", err, a)
	}
	g, _, err := a.flowGraph()
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefMCMF(g.n)
	for e := 0; e < g.edges; e += 2 {
		ref.addEdge(int(g.to[e+1]), int(g.to[e]), g.cap[e], g.cost[e])
	}
	flow, cost, err := g.run(context.Background(), 0, g.n-1)
	if err != nil {
		t.Fatal(err)
	}
	wantFlow, wantCost := ref.run(0, g.n-1)
	if flow != wantFlow || cost != wantCost {
		t.Fatalf("flow %d cost %d, reference flow %d cost %d", flow, cost, wantFlow, wantCost)
	}
	levels := 0
	for i, c := range ref.paths {
		if i == 0 || c != ref.paths[i-1] {
			levels++
		}
	}
	if g.sweeps > levels+1 {
		t.Fatalf("%d sweeps for %d distinct augmenting-path costs, want at most %d", g.sweeps, levels, levels+1)
	}
	if refSweeps := len(ref.paths) + 1; g.sweeps*4 > refSweeps {
		t.Fatalf("%d sweeps against the reference's %d: the solve is not running per cost level", g.sweeps, refSweeps)
	}
	t.Logf("c3540 M3: flow %d over %d sinks; %d sweeps, %d distinct path costs, reference %d sweeps", flow, len(a.sinks), g.sweeps, levels, len(ref.paths)+1)
}
