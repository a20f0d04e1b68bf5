package layout

import (
	"fmt"
	"slices"

	"splitmfg/internal/geom"
	"splitmfg/internal/route"
)

// Direction of a dangling wire at a vpin: the compass direction the FEOL
// metal segment points toward as it arrives at the via location. Attacks
// use it to bias candidate selection ("the partner lies that way").
type Direction int

// Directions.
const (
	DirNone Direction = iota
	DirNorth
	DirSouth
	DirEast
	DirWest
)

func (d Direction) String() string {
	switch d {
	case DirNorth:
		return "N"
	case DirSouth:
		return "S"
	case DirEast:
		return "E"
	case DirWest:
		return "W"
	default:
		return "-"
	}
}

// VPin is a virtual pin: the via location where a routed net crosses the
// split boundary from the topmost FEOL layer into the BEOL.
type VPin struct {
	ID      int
	RouteID int
	Node    route.Node // lower (FEOL-side) node, Z == split layer
	Pt      geom.Point // die coordinates of the gcell center
	Frag    int        // index into SplitView.Frags
	Dir     Direction  // dangling-wire direction
}

// Fragment is one connected FEOL piece of a routed net after splitting.
type Fragment struct {
	ID      int
	RouteID int
	Nodes   []route.Node // FEOL nodes of this component
	VPins   []int        // vpin IDs attached to this fragment
	Pins    []TaggedPin  // design terminals contained in this fragment
}

// HasDriver reports whether the fragment contains the net's source terminal
// (a cell output or a PI pad).
func (f *Fragment) HasDriver() bool {
	for _, p := range f.Pins {
		if p.Role == RoleDriver || p.Role == RolePI {
			return true
		}
	}
	return false
}

// SinkPins returns the sink-side terminals in the fragment.
func (f *Fragment) SinkPins() []TaggedPin {
	var out []TaggedPin
	for _, p := range f.Pins {
		if p.Role == RoleSink || p.Role == RolePO {
			out = append(out, p)
		}
	}
	return out
}

// SplitView is what an FEOL-fab adversary sees after splitting: fragments
// of nets in the lower layers and open via positions (vpins) pointing up.
type SplitView struct {
	Layer   int // split after this layer: M1..Layer are FEOL
	VPins   []VPin
	Frags   []Fragment
	ByRoute map[int][]int // route ID -> fragment IDs
}

// Split computes the FEOL view after the given layer. Every routed entity
// is decomposed into connected FEOL components; vias crossing the boundary
// become vpins with dangling-wire directions.
//
// A net's FEOL nodes are handled as the router's node indices, which
// its edges already hold (route.Grid.Index): an edge is FEOL when both
// ends index below Grid.LayerEnd(layer), sorting the indices as int32
// gives the layer, row, column order components are discovered in, and
// an epoch-stamped array over the grid nodes at or below the split layer
// maps an index to its position in the net's sorted list, so each edge
// end costs one load.
// Per-net bookkeeping (adjacency, component labels) lives in scratch
// buffers reused across the nets of one call, and the fragments' Nodes,
// Pins and VPins and the ByRoute lists are carved out of per-view
// arenas, so a full design allocates per chunk, not per fragment.
func (d *Design) Split(layer int) (*SplitView, error) {
	if layer < 1 || layer >= d.Grid.Layers {
		return nil, fmt.Errorf("layout: split layer M%d out of range (1..%d)", layer, d.Grid.Layers-1)
	}
	ids := d.Router.SortedNetIDs()
	sv := &SplitView{Layer: layer, ByRoute: make(map[int][]int, len(ids))}
	g := d.Grid
	// at[i].ep == ep marks index i as one of the current net's nodes, and
	// at[i].pos is then its position in the net's sorted list; FEOL nodes
	// index below end.
	end := g.LayerEnd(layer)
	type slot struct{ ep, pos int32 }
	at := make([]slot, end)
	var ep int32
	// find returns node i's position in the current net's list, or -1.
	find := func(i int32) int32 {
		if s := at[i]; s.ep == ep {
			return s.pos
		}
		return -1
	}
	// Per-net scratch, reused across nets. Adjacency is CSR over node
	// positions, filled in edge-encounter order (the order the old
	// per-node lists grew in, which danglingDir's first-match depends on).
	var (
		idx      []int32 // the net's FEOL node indices, sorted and unique
		nodes    []route.Node
		boundary []int32 // FEOL-side node index of each boundary via
		edgeA    []int32 // FEOL edge endpoints, as node positions
		edgeB    []int32
		degree   []int32
		adjStart []int32 // CSR offsets, len nodes+1
		adjList  []int32
		comp     []int32 // node position -> global fragment ID
		stack    []int32
		pinAt    []int32      // per design pin: its node position, or -1
		vpinAt   []int32      // per boundary via: its FEOL node position, or -1
		pinN     []int32      // per fragment of the net: its design pins
		vpinN    []int32      // per fragment of the net: its vpins
		arena    []route.Node // backs the fragments' Nodes
		pinArena []TaggedPin  // backs the fragments' Pins
		vidArena []int        // backs the fragments' VPins
	)
	// add collects node i once per net: an index is stamped when first
	// seen, so the sort gets every node once.
	add := func(i int32) {
		if at[i].ep != ep {
			at[i].ep = ep
			idx = append(idx, i)
		}
	}
	for _, id := range ids {
		rn := d.Router.Net(id)
		// Collect the net's FEOL nodes: wire/via endpoints below the
		// boundary, the FEOL side of each boundary via, and FEOL pins
		// (fragment members even when isolated, e.g. a pin with a stacked
		// via directly up).
		ep++
		idx, boundary = idx[:0], boundary[:0]
		for _, e := range rn.Edges {
			lo, hi := min(e.A, e.B), max(e.A, e.B)
			if hi < end {
				add(e.A)
				add(e.B)
			} else if lo < end {
				// Only a via crosses the boundary, from the split layer
				// up to the next.
				boundary = append(boundary, lo)
				add(lo)
			}
		}
		for _, p := range d.Pins[id] {
			if p.Layer <= layer {
				add(g.Index(g.NodeOf(p.Pt, p.Layer)))
			}
		}
		slices.Sort(idx)
		nn := len(idx)
		nodes = nodes[:0]
		for k, i := range idx {
			at[i] = slot{ep: ep, pos: int32(k)}
			nodes = append(nodes, g.NodeAt(i))
		}
		// CSR adjacency over node positions.
		degree = resetInt32(degree, nn)
		edgeA, edgeB = edgeA[:0], edgeB[:0]
		for _, e := range rn.Edges {
			if e.A < end && e.B < end {
				a, b := at[e.A].pos, at[e.B].pos
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
		// Connected components, discovered in sorted node order. The
		// net's components hold exactly its nn nodes, so they fit in the
		// arena's current chunk or in a fresh one.
		if cap(arena)-len(arena) < nn {
			arena = make([]route.Node, 0, max(nn, splitArenaChunk))
		}
		comp = resetInt32(comp, nn)
		for i := range comp {
			comp[i] = -1
		}
		first := len(sv.Frags)
		for i := 0; i < nn; i++ {
			if comp[i] >= 0 {
				continue
			}
			fid := len(sv.Frags)
			start := len(arena)
			stack = append(stack[:0], int32(i))
			comp[i] = int32(fid)
			for len(stack) > 0 {
				cur := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				arena = append(arena, nodes[cur])
				for _, m := range adjList[adjStart[cur]:adjStart[cur+1]] {
					if comp[m] < 0 {
						comp[m] = int32(fid)
						stack = append(stack, m)
					}
				}
			}
			end := len(arena)
			sv.Frags = append(sv.Frags, Fragment{ID: fid, RouteID: id, Nodes: arena[start:end:end]})
		}
		// Count each fragment's design pins and vpins, then give each
		// fragment exactly sized windows of the pin and vpin arenas for
		// the appends below; a fragment with none keeps nil slices.
		frags := sv.Frags[first:]
		pinN = resetInt32(pinN, len(frags))
		vpinN = resetInt32(vpinN, len(frags))
		pinAt = pinAt[:0]
		for _, p := range d.Pins[id] {
			i := int32(-1)
			if p.Layer <= layer {
				if i = find(g.Index(g.NodeOf(p.Pt, p.Layer))); i >= 0 {
					pinN[int(comp[i])-first]++
				}
			}
			pinAt = append(pinAt, i)
		}
		vpinAt = vpinAt[:0]
		for _, lo := range boundary {
			i := find(lo) // -1: a via stack floating above BEOL-only wiring
			if i >= 0 {
				vpinN[int(comp[i])-first]++
			}
			vpinAt = append(vpinAt, i)
		}
		for k := range frags {
			frags[k].Pins, pinArena = carve(pinArena, int(pinN[k]))
			frags[k].VPins, vidArena = carve(vidArena, int(vpinN[k]))
		}
		// Attach design pins to their fragments.
		for k, p := range d.Pins[id] {
			if i := pinAt[k]; i >= 0 {
				fid := comp[i]
				sv.Frags[fid].Pins = append(sv.Frags[fid].Pins, p)
			}
		}
		// VPins with dangling directions.
		for k := range boundary {
			i := vpinAt[k]
			if i < 0 {
				continue
			}
			fid := int(comp[i])
			n := nodes[i]
			vp := VPin{
				ID:      len(sv.VPins),
				RouteID: id,
				Node:    n,
				Pt:      g.CenterOf(n),
				Frag:    fid,
				Dir:     danglingDir(nodes, adjList[adjStart[i]:adjStart[i+1]], n),
			}
			sv.VPins = append(sv.VPins, vp)
			sv.Frags[fid].VPins = append(sv.Frags[fid].VPins, vp.ID)
		}
	}
	// Each net's fragments are consecutive, so its ByRoute list is a
	// window of one identity array.
	fids := make([]int, len(sv.Frags))
	for lo := 0; lo < len(fids); {
		id := sv.Frags[lo].RouteID
		hi := lo
		for ; hi < len(fids) && sv.Frags[hi].RouteID == id; hi++ {
			fids[hi] = hi
		}
		sv.ByRoute[id] = fids[lo:hi:hi]
		lo = hi
	}
	return sv, nil
}

// splitArenaChunk is the element count of one Split arena chunk (96
// KiB of Nodes).
const splitArenaChunk = 1 << 12

// carve returns an empty window of capacity n at the end of arena and
// arena grown past it, starting a fresh chunk when the current one lacks
// room. For n == 0 it returns a nil window and arena unchanged.
func carve[T any](arena []T, n int) (window, rest []T) {
	if n == 0 {
		return nil, arena
	}
	if cap(arena)-len(arena) < n {
		arena = make([]T, 0, max(n, splitArenaChunk))
	}
	l := len(arena)
	return arena[l : l : l+n], arena[:l+n]
}

// resetInt32 returns a zeroed int32 slice of length n, reusing buf's
// backing array when it is large enough.
func resetInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// danglingDir derives the direction the last FEOL wire segment travels as
// it arrives at the vpin node: a segment from the west points East, etc.
// Vias directly stacked (no top-layer segment) yield DirNone. neighbors
// holds the vpin node's adjacency as indices into nodes, in edge-encounter
// order (first match wins, as it always has).
func danglingDir(nodes []route.Node, neighbors []int32, at route.Node) Direction {
	for _, mi := range neighbors {
		m := nodes[mi]
		if m.Z != at.Z {
			continue // via below, not a wire
		}
		switch {
		case m.X < at.X:
			return DirEast
		case m.X > at.X:
			return DirWest
		case m.Y < at.Y:
			return DirNorth
		case m.Y > at.Y:
			return DirSouth
		}
	}
	return DirNone
}

// DriverFrags returns the fragments containing source terminals.
func (sv *SplitView) DriverFrags() []int {
	var out []int
	for i := range sv.Frags {
		if sv.Frags[i].HasDriver() {
			out = append(out, i)
		}
	}
	return out
}

// SinkFrags returns fragments that contain at least one sink terminal and
// no driver (pure sink-side fragments).
func (sv *SplitView) SinkFrags() []int {
	var out []int
	for i := range sv.Frags {
		f := &sv.Frags[i]
		if !f.HasDriver() && len(f.SinkPins()) > 0 {
			out = append(out, i)
		}
	}
	return out
}

// FragCenter returns the centroid of a fragment's vpins (falling back to
// node centroid), which attacks use as the fragment's location.
func (sv *SplitView) FragCenter(d *Design, fid int) geom.Point {
	f := &sv.Frags[fid]
	if len(f.VPins) > 0 {
		var x, y int
		for _, vid := range f.VPins {
			x += sv.VPins[vid].Pt.X
			y += sv.VPins[vid].Pt.Y
		}
		return geom.Point{X: x / len(f.VPins), Y: y / len(f.VPins)}
	}
	var x, y int
	for _, n := range f.Nodes {
		p := d.Grid.CenterOf(n)
		x += p.X
		y += p.Y
	}
	if len(f.Nodes) == 0 {
		return geom.Point{}
	}
	return geom.Point{X: x / len(f.Nodes), Y: y / len(f.Nodes)}
}
