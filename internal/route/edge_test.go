package route

import "testing"

// refIndex, refIsVia and refWireCell are the Node-based formulas the
// router used while Edge held two Nodes: the node index, the via test,
// and where a wire edge's usage is kept (its lower end, horizontal when
// both ends share a row). FuzzGridEdge holds the index-based Grid
// methods to them.
func refIndex(g Grid, n Node) int32 { return int32((n.Z*g.H+n.Y)*g.W + n.X) }

func refIsVia(a, b Node) bool { return a.Z != b.Z }

func refWireCell(g Grid, a, b Node) (int32, bool) {
	lo := a
	if b.X < lo.X || b.Y < lo.Y {
		lo = b
	}
	return refIndex(g, lo), a.Y == b.Y && a.X != b.X
}

// FuzzGridEdge draws a grid shape, down to one gcell wide or tall or
// both, and a pair of adjacent nodes in path order. Index must match
// refIndex and round-trip through NodeAt, Ends must return both nodes,
// IsVia must match refIsVia, LayerEnd must bound each node's layer, and
// a wire's usage cell and direction must match refWireCell.
func FuzzGridEdge(f *testing.F) {
	// Arguments: W−1, H−1, layers−2, x, y, z−1, direction (+x, −x, +y,
	// −y, up, down).
	f.Add(uint8(19), uint8(19), uint8(8), uint8(5), uint8(7), uint8(2), uint8(0))
	f.Add(uint8(19), uint8(19), uint8(8), uint8(5), uint8(7), uint8(3), uint8(3))
	f.Add(uint8(0), uint8(29), uint8(8), uint8(0), uint8(4), uint8(1), uint8(2))  // one column
	f.Add(uint8(29), uint8(0), uint8(8), uint8(4), uint8(0), uint8(2), uint8(1))  // one row
	f.Add(uint8(0), uint8(0), uint8(1), uint8(0), uint8(0), uint8(0), uint8(4))   // one gcell: vias only
	f.Add(uint8(0), uint8(29), uint8(8), uint8(0), uint8(29), uint8(9), uint8(5)) // top corner, via down
	f.Fuzz(func(t *testing.T, gw, gh, layers, x, y, z, dir uint8) {
		g := Grid{W: 1 + int(gw)%64, H: 1 + int(gh)%64, Layers: 2 + int(layers)%9, GCell: DefaultGCellNM}
		a := Node{X: int(x) % g.W, Y: int(y) % g.H, Z: 1 + int(z)%g.Layers}
		b := a
		switch dir % 6 {
		case 0:
			b.X++
		case 1:
			b.X--
		case 2:
			b.Y++
		case 3:
			b.Y--
		case 4:
			b.Z++
		case 5:
			b.Z--
		}
		if b.X < 0 || b.X >= g.W || b.Y < 0 || b.Y >= g.H || b.Z < 1 || b.Z > g.Layers {
			return // no neighbour that way
		}
		for _, n := range []Node{a, b} {
			i := g.Index(n)
			if want := refIndex(g, n); i != want {
				t.Fatalf("grid %dx%dx%d: Index(%v) = %d, want %d", g.W, g.H, g.Layers, n, i, want)
			}
			if got := g.NodeAt(i); got != n {
				t.Fatalf("grid %dx%dx%d: NodeAt(Index(%v)) = %v", g.W, g.H, g.Layers, n, got)
			}
			for l := 1; l <= g.Layers; l++ {
				if below := i < g.LayerEnd(l); below != (n.Z <= l) {
					t.Fatalf("grid %dx%dx%d: %v below LayerEnd(%d) = %v", g.W, g.H, g.Layers, n, l, below)
				}
			}
		}
		e := Edge{A: g.Index(a), B: g.Index(b)}
		if ga, gb := g.Ends(e); ga != a || gb != b {
			t.Fatalf("grid %dx%dx%d: Ends(%v) = %v, %v, want %v, %v", g.W, g.H, g.Layers, e, ga, gb, a, b)
		}
		if via := g.IsVia(e); via != refIsVia(a, b) {
			t.Fatalf("grid %dx%dx%d: IsVia(%v -> %v) = %v", g.W, g.H, g.Layers, a, b, via)
		}
		if refIsVia(a, b) {
			return
		}
		i, horizontal := g.wireCell(e)
		wi, wh := refWireCell(g, a, b)
		if i != wi || horizontal != wh {
			t.Fatalf("grid %dx%dx%d: wire %v -> %v kept at (%d, horizontal %v), want (%d, %v)",
				g.W, g.H, g.Layers, a, b, i, horizontal, wi, wh)
		}
	})
}
