package layout

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"splitmfg/internal/bench"
	"splitmfg/internal/cell"
	"splitmfg/internal/place"
	"splitmfg/internal/route"
)

// splitRef is Design.Split as it was before index sorting and arenas:
// it sorts each net's FEOL route.Node structs with nodeCmp,
// binary-searches both ends of every edge, and grows each fragment's
// Nodes by append. TestSplitMatchesReference holds Split to it.
func splitRef(d *Design, layer int) (*SplitView, error) {
	if layer < 1 || layer >= d.Grid.Layers {
		return nil, fmt.Errorf("layout: split layer M%d out of range (1..%d)", layer, d.Grid.Layers-1)
	}
	sv := &SplitView{Layer: layer, ByRoute: map[int][]int{}}
	// Per-net scratch, reused across nets. Nodes are deduplicated by sort
	// order and addressed by their index; adjacency is CSR over those
	// indices, filled in edge-encounter order (the order the old per-node
	// lists grew in, which danglingDir's first-match depends on).
	var (
		nodes    []route.Node
		boundary []route.Node // FEOL-side node of each boundary via
		edgeA    []int32      // FEOL edge endpoints, as node indices
		edgeB    []int32
		degree   []int32
		adjStart []int32 // CSR offsets, len nodes+1
		adjList  []int32
		comp     []int32 // node index -> global fragment ID
		stack    []int32
	)
	// find returns the index of n in the current sorted node list.
	find := func(n route.Node) int {
		lo, hi := 0, len(nodes)
		for lo < hi {
			mid := (lo + hi) / 2
			if nodeCmp(nodes[mid], n) < 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	for _, id := range d.Router.SortedNetIDs() {
		rn := d.Router.Net(id)
		// Collect the net's FEOL nodes: wire/via endpoints below the
		// boundary, the FEOL side of each boundary via, and FEOL pins
		// (fragment members even when isolated, e.g. a pin with a stacked
		// via directly up).
		nodes, boundary = nodes[:0], boundary[:0]
		for _, e := range rn.Edges {
			a, b := d.Grid.Ends(e)
			if a.Z <= layer && b.Z <= layer {
				nodes = append(nodes, a, b)
				continue
			}
			lo, hi := a, b
			if hi.Z < lo.Z {
				lo, hi = hi, lo
			}
			if lo.Z == layer && hi.Z == layer+1 {
				boundary = append(boundary, lo)
				nodes = append(nodes, lo)
			}
		}
		for _, p := range d.Pins[id] {
			if p.Layer <= layer {
				nodes = append(nodes, d.Grid.NodeOf(p.Pt, p.Layer))
			}
		}
		slices.SortFunc(nodes, nodeCmp)
		nodes = dedupNodes(nodes)
		nn := len(nodes)
		// CSR adjacency over node indices.
		degree = resetInt32(degree, nn)
		edgeA, edgeB = edgeA[:0], edgeB[:0]
		for _, e := range rn.Edges {
			if ea, eb := d.Grid.Ends(e); ea.Z <= layer && eb.Z <= layer {
				a, b := int32(find(ea)), int32(find(eb))
				edgeA = append(edgeA, a)
				edgeB = append(edgeB, b)
				degree[a]++
				degree[b]++
			}
		}
		adjStart = resetInt32(adjStart, nn+1)
		for i := 0; i < nn; i++ {
			adjStart[i+1] = adjStart[i] + degree[i]
		}
		adjList = resetInt32(adjList, int(adjStart[nn]))
		for i := range degree {
			degree[i] = 0 // reuse as per-node fill cursor
		}
		for k := range edgeA {
			a, b := edgeA[k], edgeB[k]
			adjList[adjStart[a]+degree[a]] = b
			degree[a]++
			adjList[adjStart[b]+degree[b]] = a
			degree[b]++
		}
		// Connected components, discovered in sorted node order.
		comp = resetInt32(comp, nn)
		for i := range comp {
			comp[i] = -1
		}
		for i := 0; i < nn; i++ {
			if comp[i] >= 0 {
				continue
			}
			fid := len(sv.Frags)
			frag := Fragment{ID: fid, RouteID: id}
			stack = append(stack[:0], int32(i))
			comp[i] = int32(fid)
			for len(stack) > 0 {
				cur := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				frag.Nodes = append(frag.Nodes, nodes[cur])
				for _, m := range adjList[adjStart[cur]:adjStart[cur+1]] {
					if comp[m] < 0 {
						comp[m] = int32(fid)
						stack = append(stack, m)
					}
				}
			}
			sv.Frags = append(sv.Frags, frag)
			sv.ByRoute[id] = append(sv.ByRoute[id], fid)
		}
		// Attach design pins to their fragments.
		for _, p := range d.Pins[id] {
			if p.Layer <= layer {
				n := d.Grid.NodeOf(p.Pt, p.Layer)
				if i := find(n); i < nn && nodes[i] == n {
					fid := comp[i]
					sv.Frags[fid].Pins = append(sv.Frags[fid].Pins, p)
				}
			}
		}
		// VPins with dangling directions.
		for _, lo := range boundary {
			i := find(lo)
			if i >= nn || nodes[i] != lo {
				continue // via stack floating above BEOL-only wiring
			}
			fid := int(comp[i])
			vp := VPin{
				ID:      len(sv.VPins),
				RouteID: id,
				Node:    lo,
				Pt:      d.Grid.CenterOf(lo),
				Frag:    fid,
				Dir:     danglingDir(nodes, adjList[adjStart[i]:adjStart[i+1]], lo),
			}
			sv.VPins = append(sv.VPins, vp)
			sv.Frags[fid].VPins = append(sv.Frags[fid].VPins, vp.ID)
		}
	}
	return sv, nil
}

// dedupNodes removes adjacent duplicates from a sorted node slice in place.
func dedupNodes(nodes []route.Node) []route.Node {
	out := nodes[:0]
	for i, n := range nodes {
		if i == 0 || n != nodes[i-1] {
			out = append(out, n)
		}
	}
	return out
}

// nodeCmp orders nodes by layer, then row, then column.
func nodeCmp(a, b route.Node) int {
	if a.Z != b.Z {
		return cmp.Compare(a.Z, b.Z)
	}
	if a.Y != b.Y {
		return cmp.Compare(a.Y, b.Y)
	}
	return cmp.Compare(a.X, b.X)
}

// checkSplitMatchesRef requires Split to return exactly splitRef's view
// at every split layer of d.
func checkSplitMatchesRef(t *testing.T, d *Design) {
	t.Helper()
	for layer := 1; layer < d.Grid.Layers; layer++ {
		got, err := d.Split(layer)
		if err != nil {
			t.Fatal(err)
		}
		want, err := splitRef(d, layer)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("M%d: Split differs from the reference (%d frags, %d vpins; reference %d, %d)",
				layer, len(got.Frags), len(got.VPins), len(want.Frags), len(want.VPins))
		}
	}
}

// TestSplitMatchesReference holds Split to splitRef on every ISCAS-85
// design at every split layer: the same fragments in the same order,
// the same nodes, pins and vpins, and the same ByRoute lists.
func TestSplitMatchesReference(t *testing.T) {
	for _, name := range bench.ISCASNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			checkSplitMatchesRef(t, buildDesign(t, name))
		})
	}
}

// TestSplitMatchesReferenceSuperblue does the same on superblue18 at
// scale 500, routed with the hierarchical strategy, whose corridor
// routes and via stacks differ from the flat ISCAS layouts'.
func TestSplitMatchesReferenceSuperblue(t *testing.T) {
	nl, err := bench.Superblue("superblue18", 500)
	if err != nil {
		t.Fatal(err)
	}
	util, err := bench.SuperblueUtil("superblue18")
	if err != nil {
		t.Fatal(err)
	}
	masters, err := cell.NewNangate45Like().Bind(nl)
	if err != nil {
		t.Fatal(err)
	}
	p, err := place.Place(nl, masters, place.Options{UtilPercent: util, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDesign(nl, masters, p, route.Options{Strategy: route.StrategyHier})
	if err := d.RouteAll(nil); err != nil {
		t.Fatal(err)
	}
	checkSplitMatchesRef(t, d)
}
