// Package place is the placement substrate standing in for Cadence Innovus'
// placer. It provides row-based global placement (iterative net-centroid
// pull with bin spreading) followed by Tetris-style legalization, giving
// layouts with the property every proximity attack exploits: connected
// gates end up near each other (unless the netlist itself is misleading,
// which is exactly the paper's defense).
package place

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"splitmfg/internal/cell"
	"splitmfg/internal/geom"
	"splitmfg/internal/netlist"
)

// MaxUtilPercent is the highest row utilization Place accepts.
const MaxUtilPercent = 95

// iterations is the number of global-placement iterations.
const iterations = 24

// Options configures placement.
type Options struct {
	UtilPercent int   // target row utilization (paper: 56–77 for superblue)
	Seed        int64 // RNG seed for the initial scatter
}

// Cell is one placed instance.
type Cell struct {
	Master *cell.Master
	Loc    geom.Point // lower-left corner, nm
}

// Center returns the cell's center point, used as its pin location at the
// granularity the global router works at.
func (c Cell) Center() geom.Point {
	return geom.Point{X: c.Loc.X + c.Master.WidthNM/2, Y: c.Loc.Y + cell.RowHeight/2}
}

// Placement is a legalized row-based placement of a netlist.
type Placement struct {
	Die     geom.Rect
	NumRows int
	Cells   []Cell       // indexed by gate ID
	PIPads  []geom.Point // pad location per primary input
	POPads  []geom.Point // pad location per primary output
}

// GateCenter returns the center of the given gate's cell.
func (p *Placement) GateCenter(gate int) geom.Point { return p.Cells[gate].Center() }

// NetPoints returns the pin points of a net: driver (cell center or PI pad)
// followed by all sinks (cell centers and PO pads).
func (p *Placement) NetPoints(nl *netlist.Netlist, netID int) []geom.Point {
	n := &nl.Nets[netID]
	return p.AppendNetPoints(make([]geom.Point, 0, 1+n.FanoutCount()), nl, netID)
}

// AppendNetPoints is the allocation-free core of NetPoints: it appends the
// net's pin points to dst, which hot loops reuse across nets.
func (p *Placement) AppendNetPoints(dst []geom.Point, nl *netlist.Netlist, netID int) []geom.Point {
	n := &nl.Nets[netID]
	if n.IsPI() {
		dst = append(dst, p.PIPads[n.PI])
	} else {
		dst = append(dst, p.GateCenter(n.Driver))
	}
	for _, s := range n.Sinks {
		dst = append(dst, p.GateCenter(s.Gate))
	}
	for _, po := range n.POs {
		dst = append(dst, p.POPads[po])
	}
	return dst
}

// HPWL returns the total half-perimeter wirelength over all nets, in nm.
func (p *Placement) HPWL(nl *netlist.Netlist) int64 {
	var total int64
	var pts []geom.Point
	for _, n := range nl.Nets {
		pts = p.AppendNetPoints(pts[:0], nl, n.ID)
		total += int64(geom.HPWL(pts))
	}
	return total
}

// Clone returns a deep copy (cells share masters, which are immutable).
func (p *Placement) Clone() *Placement {
	c := *p
	c.Cells = append([]Cell(nil), p.Cells...)
	c.PIPads = append([]geom.Point(nil), p.PIPads...)
	c.POPads = append([]geom.Point(nil), p.POPads...)
	return &c
}

// Place runs global placement plus legalization. masters must map every
// gate of nl to a library cell (see cell.Library.Bind).
func Place(nl *netlist.Netlist, masters []*cell.Master, opt Options) (*Placement, error) {
	if len(masters) != nl.NumGates() {
		return nil, fmt.Errorf("place: %d masters for %d gates", len(masters), nl.NumGates())
	}
	if opt.UtilPercent <= 0 || opt.UtilPercent > MaxUtilPercent {
		return nil, fmt.Errorf("place: utilization %d%% out of range (1..%d)", opt.UtilPercent, MaxUtilPercent)
	}
	// Die sizing: square-ish outline at the requested utilization.
	var cellArea float64
	for _, m := range masters {
		cellArea += float64(m.WidthNM) * float64(cell.RowHeight)
	}
	dieArea := cellArea * 100 / float64(opt.UtilPercent)
	side := math.Sqrt(dieArea)
	numRows := int(math.Ceil(side / float64(cell.RowHeight)))
	if numRows < 1 {
		numRows = 1
	}
	rowWidth := int(math.Ceil(dieArea / float64(numRows) / float64(cell.RowHeight)))
	rowWidth = (rowWidth/cell.SiteWidth + 1) * cell.SiteWidth
	die := geom.Rect{Lo: geom.Point{X: 0, Y: 0}, Hi: geom.Point{X: rowWidth, Y: numRows * cell.RowHeight}}

	p := &Placement{Die: die, NumRows: numRows, Cells: make([]Cell, nl.NumGates())}
	p.placePads(nl)

	rng := rand.New(rand.NewSource(opt.Seed)) //smlint:rawseed callers pass a seed already mixed through the pipeline's splitmix64 streams (flow.layerSeed); re-mixing here would shift every golden byte pin
	// Working coordinates: float cell centers. Cells seed along a Hilbert
	// curve in netlist order: synthesis emits logically related gates
	// together, so index order carries locality — exactly the structure a
	// commercial placer recovers — and the space-filling curve turns index
	// proximity into compact 2-D proximity. Pull/spread iterations then
	// refine by actual connectivity.
	xs := make([]float64, nl.NumGates())
	ys := make([]float64, nl.NumGates())
	n := nl.NumGates()
	horder := 1
	for (1 << (2 * horder)) < n {
		horder++
	}
	hside := 1 << horder
	htotal := hside * hside
	for i := range xs {
		hx, hy := hilbertD2XY(horder, i*htotal/max(n, 1))
		jx := (rng.Float64() - 0.5) * float64(die.W()) / float64(hside)
		jy := (rng.Float64() - 0.5) * float64(die.H()) / float64(hside)
		xs[i] = (float64(hx)+0.5)/float64(hside)*float64(die.W()) + jx
		ys[i] = (float64(hy)+0.5)/float64(hside)*float64(die.H()) + jy
	}
	p.globalPlace(nl, masters, xs, ys, iterations)
	// Legalize with progressively tighter gap budgets: generous gaps keep
	// cells near their global-placement spots; if the die is too full for
	// that, tighter packing always succeeds given the utilization bound.
	slack := float64(100-opt.UtilPercent) / 100
	legalized := false
	var err error
	for _, frac := range []float64{slack, slack / 2, 0} {
		if err = p.legalize(nl, masters, xs, ys, int(frac*float64(die.W()))); err == nil {
			legalized = true
			break
		}
	}
	if !legalized {
		return nil, err
	}
	// Detailed placement: same-footprint swap refinement, as every
	// commercial flow runs post-legalization.
	p.Refine(nl, 3)
	return p, nil
}

// placePads distributes PI pads along the left+top edges and PO pads along
// the right+bottom edges, evenly spaced — the convention commercial flows
// default to absent a floorplan constraint file.
func (p *Placement) placePads(nl *netlist.Netlist) {
	die := p.Die
	p.PIPads = make([]geom.Point, nl.NumPIs())
	p.POPads = make([]geom.Point, nl.NumPOs())
	per := func(i, n, lenA, lenB int) (int, bool) {
		// Walk the two edges as one path of length lenA+lenB.
		total := lenA + lenB
		pos := (i*2 + 1) * total / (2 * max(n, 1))
		if pos < lenA {
			return pos, true
		}
		return pos - lenA, false
	}
	for i := range p.PIPads {
		pos, onFirst := per(i, len(p.PIPads), die.H(), die.W())
		if onFirst { // left edge, bottom-up
			p.PIPads[i] = geom.Point{X: die.Lo.X, Y: die.Lo.Y + pos}
		} else { // top edge, left-right
			p.PIPads[i] = geom.Point{X: die.Lo.X + pos, Y: die.Hi.Y}
		}
	}
	for i := range p.POPads {
		pos, onFirst := per(i, len(p.POPads), die.H(), die.W())
		if onFirst { // right edge
			p.POPads[i] = geom.Point{X: die.Hi.X, Y: die.Lo.Y + pos}
		} else { // bottom edge
			p.POPads[i] = geom.Point{X: die.Lo.X + pos, Y: die.Lo.Y}
		}
	}
}

// globalPlace iterates net-centroid pulls with bin-based spreading.
func (p *Placement) globalPlace(nl *netlist.Netlist, masters []*cell.Master, xs, ys []float64, iters int) {
	die := p.Die
	w, h := float64(die.W()), float64(die.H())
	nx := make([]float64, len(xs))
	ny := make([]float64, len(ys))
	wt := make([]float64, len(xs))
	keys := make([]rankKey, len(xs))
	addPull := func(g int, px, py, weight float64) {
		nx[g] += px * weight
		ny[g] += py * weight
		wt[g] += weight
	}
	for it := 0; it < iters; it++ {
		// Pull each gate toward the centroid of everything it connects to.
		clear(nx)
		clear(ny)
		clear(wt)
		for _, n := range nl.Nets {
			// Star model around the net centroid.
			var cx, cy float64
			cnt := 0
			visit := func(px, py float64) { cx += px; cy += py; cnt++ }
			if n.IsPI() {
				visit(float64(p.PIPads[n.PI].X), float64(p.PIPads[n.PI].Y))
			} else {
				visit(xs[n.Driver], ys[n.Driver])
			}
			for _, s := range n.Sinks {
				visit(xs[s.Gate], ys[s.Gate])
			}
			for _, po := range n.POs {
				visit(float64(p.POPads[po].X), float64(p.POPads[po].Y))
			}
			if cnt < 2 {
				continue
			}
			cx /= float64(cnt)
			cy /= float64(cnt)
			weight := 1.0 / float64(cnt-1) // de-emphasize huge nets
			if !n.IsPI() {
				addPull(n.Driver, cx, cy, weight)
			}
			for _, s := range n.Sinks {
				addPull(s.Gate, cx, cy, weight)
			}
		}
		alpha := 0.85 // pull strength
		for g := range xs {
			if wt[g] > 0 {
				xs[g] = (1-alpha)*xs[g] + alpha*nx[g]/wt[g]
				ys[g] = (1-alpha)*ys[g] + alpha*ny[g]/wt[g]
			}
		}
		// Spreading: blend each coordinate toward its rank-uniform
		// position. This keeps relative order (so clusters of connected
		// gates stay together) while forcing near-uniform marginals, which
		// is what the row-capacity-limited legalizer needs.
		rankSpread(xs, w, 0.45, keys)
		rankSpread(ys, h, 0.45, keys)
	}
}

// rankKey is one gate and its coordinate on the axis being ranked.
type rankKey struct {
	v float64
	g int
}

// rankSpread moves each value part-way toward the position its rank would
// occupy under a uniform distribution over [0, span). keys is scratch of
// len(v).
//
// Gates are ranked by sorting (value, gate) keys from index order with
// slices.SortFunc and the less v[i] < v[j]. That is the pdqsort that
// sort.Slice runs, both generated from sort/gen_sort_variants.go and
// comparing only through the less, so equal values rank as sort.Slice
// ranks them; placeRef in the tests holds Place to that.
func rankSpread(v []float64, span, beta float64, keys []rankKey) {
	for g := range keys {
		keys[g] = rankKey{v: v[g], g: g}
	}
	slices.SortFunc(keys, func(a, b rankKey) int {
		if a.v < b.v {
			return -1
		}
		return 0
	})
	n := float64(len(v))
	for rank, k := range keys {
		target := (float64(rank) + 0.5) / n * span
		v[k.g] = (1-beta)*v[k.g] + beta*target
	}
}

// legalize snaps cells to rows and sites without overlap (Tetris). maxGap
// bounds how far right of a row's cursor a cell may be placed; unused space
// left of the cursor is unreachable later, so bounding the gap bounds the
// total waste.
//
// Each cell takes the row of least cost, the lowest of equal ones. Rows
// are visited nearest wantRow first, and the visit stops once the row
// distance alone exceeds the best cost found: no row beyond can reach it.
func (p *Placement) legalize(nl *netlist.Netlist, masters []*cell.Master, xs, ys []float64, maxGap int) error {
	die := p.Die
	order := make([]int, nl.NumGates())
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if xs[a] < xs[b] {
			return -1
		}
		return 0
	})
	rowCursor := make([]int, p.NumRows) // next free x per row
	for i := range rowCursor {
		rowCursor[i] = die.Lo.X
	}
	for _, g := range order {
		m := masters[g]
		wantX := int(xs[g]) - m.WidthNM/2
		wantRow := geom.Clamp(int(ys[g])/cell.RowHeight, 0, p.NumRows-1)
		bestRow, bestX, bestCost := -1, 0, math.MaxFloat64
		for d := 0; wantRow-d >= 0 || wantRow+d < p.NumRows; d++ {
			dy := float64(d) * float64(cell.RowHeight)
			if dy > bestCost {
				break
			}
			// r is wantRow-d and, for d > 0, wantRow+d.
			for r := wantRow - d; r <= wantRow+d; r += max(2*d, 1) {
				if r < 0 || r >= p.NumRows {
					continue
				}
				x := geom.Clamp(wantX, rowCursor[r], rowCursor[r]+maxGap)
				x = (x / cell.SiteWidth) * cell.SiteWidth
				if x < rowCursor[r] {
					x += cell.SiteWidth
				}
				// Clamp back toward the row cursor when the desired spot would
				// spill past the die edge.
				if x+m.WidthNM > die.Hi.X {
					x = (die.Hi.X - m.WidthNM) / cell.SiteWidth * cell.SiteWidth
				}
				if x < rowCursor[r] || x+m.WidthNM > die.Hi.X {
					continue // genuinely no room in this row
				}
				dx := math.Abs(float64(x - wantX))
				if cost := dx + dy; cost < bestCost || cost == bestCost && r < bestRow {
					bestCost, bestRow, bestX = cost, r, x
				}
			}
		}
		if bestRow < 0 {
			return fmt.Errorf("place: legalization overflow: no row can fit gate %q (die too full)", nl.Gates[g].Name)
		}
		p.Cells[g] = Cell{Master: m, Loc: geom.Point{X: bestX, Y: die.Lo.Y + bestRow*cell.RowHeight}}
		rowCursor[bestRow] = bestX + m.WidthNM
	}
	return nil
}

// CheckLegal verifies that no two cells overlap and all lie inside the die.
func (p *Placement) CheckLegal() error {
	type span struct{ y, lo, hi, id int }
	spans := make([]span, 0, len(p.Cells))
	for id, c := range p.Cells {
		if c.Master == nil {
			return fmt.Errorf("place: cell %d unplaced", id)
		}
		if c.Loc.X < p.Die.Lo.X || c.Loc.X+c.Master.WidthNM > p.Die.Hi.X ||
			c.Loc.Y < p.Die.Lo.Y || c.Loc.Y+cell.RowHeight > p.Die.Hi.Y {
			return fmt.Errorf("place: cell %d outside die", id)
		}
		if c.Loc.Y%cell.RowHeight != 0 {
			return fmt.Errorf("place: cell %d off-row at y=%d", id, c.Loc.Y)
		}
		if c.Loc.X%cell.SiteWidth != 0 {
			return fmt.Errorf("place: cell %d off-site at x=%d", id, c.Loc.X)
		}
		spans = append(spans, span{c.Loc.Y, c.Loc.X, c.Loc.X + c.Master.WidthNM, id})
	}
	// One flat sort by (row, x) replaces the old per-row map of spans; rows
	// are contiguous runs, so overlap is always between sort-adjacent spans.
	slices.SortFunc(spans, func(a, b span) int {
		if a.y != b.y {
			return cmp.Compare(a.y, b.y)
		}
		return cmp.Compare(a.lo, b.lo)
	})
	for i := 1; i < len(spans); i++ {
		if spans[i].y == spans[i-1].y && spans[i].lo < spans[i-1].hi {
			return fmt.Errorf("place: cells %d and %d overlap in row y=%d", spans[i-1].id, spans[i].id, spans[i].y)
		}
	}
	return nil
}

// SwapCells exchanges the locations of two gates (used by the
// placement-perturbation baseline defenses). The result remains legal when
// the two cells have equal widths; for unequal widths the wider cell may
// not fit, so the caller must re-check legality or restrict to equal sizes.
func (p *Placement) SwapCells(a, b int) {
	p.Cells[a].Loc, p.Cells[b].Loc = p.Cells[b].Loc, p.Cells[a].Loc
}

// ConnectedDistances returns, for every gate-to-gate driver→sink connection,
// the Manhattan distance between the two cell centers in nm. This is the
// statistic behind Table 1 and Fig. 4 of the paper.
func (p *Placement) ConnectedDistances(nl *netlist.Netlist) []int {
	var out []int
	for _, n := range nl.Nets {
		if n.IsPI() {
			continue
		}
		d := p.GateCenter(n.Driver)
		for _, s := range n.Sinks {
			out = append(out, d.Manhattan(p.GateCenter(s.Gate)))
		}
	}
	return out
}

// hilbertD2XY converts a distance along the order-k Hilbert curve to grid
// coordinates on a 2^k x 2^k lattice (standard bit-twiddling construction).
func hilbertD2XY(order, d int) (x, y int) {
	rx, ry := 0, 0
	t := d
	for s := 1; s < 1<<order; s *= 2 {
		rx = 1 & (t / 2)
		ry = 1 & (t ^ rx)
		// Rotate quadrant.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
		x += s * rx
		y += s * ry
		t /= 4
	}
	return x, y
}

// Refine runs swap-based detailed placement: several passes where each
// cell greedily swaps with same-width cells in a local window whenever the
// swap reduces the HPWL of the nets touching either cell. Commercial flows
// run exactly such a pass after legalization; it is what compresses the
// median driver-sink distance to a few cell pitches and thereby produces
// the proximity leak the attacks feed on.
//
// A candidate's gain is the HPWL the swap saves over the distinct nets
// of both cells. Only the two cells move, so a net on one of them alone
// changes by that cell's pins moving to the other's center, which its
// summary (netSum) prices in O(1), and a net on both does not change.
// Each cell takes the first candidate, in scan order, of strictly
// largest positive gain. DESIGN.md "Detailed placement" has the details.
func (p *Placement) Refine(nl *netlist.Netlist, passes int) {
	if passes <= 0 {
		passes = 2
	}
	if len(p.Cells) == 0 {
		return
	}
	rf := newRefiner(p, nl)
	// Spatial index: cells by (row, approximate column bucket), stored as a
	// dense grid. Swapping only exchanges locations, so the set of occupied
	// buckets is invariant across passes and the grid extent is fixed.
	const colPitch = 8 * cell.SiteWidth
	rowOf := func(g int) int { return p.Cells[g].Loc.Y / cell.RowHeight }
	colOf := func(g int) int { return p.Cells[g].Loc.X / colPitch }
	rowBase, colBase := rowOf(0), colOf(0)
	rowMax, colMax := rowBase, colBase
	for g := range p.Cells {
		r, c := rowOf(g), colOf(g)
		rowBase, rowMax = min(rowBase, r), max(rowMax, r)
		colBase, colMax = min(colBase, c), max(colMax, c)
	}
	nRows, nCols := rowMax-rowBase+1, colMax-colBase+1
	// Bucket i holds index[start[i]:start[i+1]], in gate order; each entry
	// carries its cell's width, which the scan compares first.
	start := make([]int32, nRows*nCols+1)
	index := make([]slot, len(p.Cells))
	for pass := 0; pass < passes; pass++ {
		clear(start)
		for g := range p.Cells {
			start[(rowOf(g)-rowBase)*nCols+(colOf(g)-colBase)]++
		}
		sum := int32(0)
		for i, n := range start {
			start[i], sum = sum, sum+n
		}
		for g := range p.Cells {
			i := (rowOf(g)-rowBase)*nCols + (colOf(g) - colBase)
			index[start[i]] = slot{g: int32(g), w: int32(p.Cells[g].Master.WidthNM)}
			start[i]++
		}
		// The fill advanced each start[i] to the next bucket's start.
		copy(start[1:], start)
		start[0] = 0
		improved := 0
		for a := range p.Cells {
			ra, ca := rowOf(a)-rowBase, colOf(a)-colBase
			wa := int32(p.Cells[a].Master.WidthNM)
			rf.begin(a)
			bestGain, bestB := 0, -1
			for dr := -2; dr <= 2; dr++ {
				for dc := -2; dc <= 2; dc++ {
					r, c := ra+dr, ca+dc
					if r < 0 || r >= nRows || c < 0 || c >= nCols {
						continue
					}
					i := r*nCols + c
					for _, s := range index[start[i]:start[i+1]] {
						if s.w != wa || int(s.g) == a {
							continue
						}
						if gain := rf.gain(int(s.g)); gain > bestGain {
							bestGain, bestB = gain, int(s.g)
						}
					}
				}
			}
			if bestB >= 0 {
				rf.swap(a, bestB)
				improved++
			}
		}
		if improved == 0 {
			return
		}
	}
}

// slot is one spatial-index entry: a gate and its cell's width.
type slot struct{ g, w int32 }

// netSum summarizes the pin points of one net for Refine. Each bound is
// kept as a maximum: of −x, x, −y and y, so hpwl is the sum of the four.
// For bound k, top[k] is the maximum over all pins, holder[k] one gate
// with a pin there (−1 for a pad), and rest[k] the maximum over the pins
// of every gate but holder[k] and of every pad, or math.MinInt where
// there are none. The net's bounds without gate g are therefore top[k],
// or rest[k] where holder[k] is g.
type netSum struct {
	top, rest [4]int
	holder    [4]int32
	hpwl      int
	ok        bool // false until computed, and again once a cell on the net moves
}

// signed returns a point's coordinates as netSum's four maximized terms.
func signed(pt geom.Point) [4]int { return [4]int{-pt.X, pt.X, -pt.Y, pt.Y} }

// add folds one pin point of gate g (−1 for a pad) into the summary.
func (s *netSum) add(pt geom.Point, g int32) {
	q := signed(pt)
	for k, v := range q {
		switch {
		case v > s.top[k]:
			if g != s.holder[k] {
				s.rest[k] = s.top[k]
			}
			s.top[k], s.holder[k] = v, g
		case g != s.holder[k]:
			s.rest[k] = max(s.rest[k], v)
		}
	}
}

// without returns the net's four bounds over every pin not of gate g.
func (s *netSum) without(g int32) [4]int {
	b := s.top
	for k := range b {
		if s.holder[k] == g {
			b[k] = s.rest[k]
		}
	}
	return b
}

// hpwlWith returns the HPWL of the bounds b extended by one point's
// signed coordinates q: a net's HPWL once every pin of a gate it was
// summarized without moves to that point.
func hpwlWith(b, q [4]int) int {
	return max(b[0], q[0]) + max(b[1], q[1]) + max(b[2], q[2]) + max(b[3], q[3])
}

// pinSum is one net of the scanned cell: the net's HPWL and its bounds
// without that cell.
type pinSum struct {
	hpwl int
	wo   [4]int
}

// refiner holds Refine's state: each net's pins and summary, each
// gate's distinct nets, the cell centers, and the cell whose candidates
// are being scanned.
type refiner struct {
	p *Placement
	// pinsOn[poff[id]:poff[id+1]] are net id's pins: a gate, or ^i for
	// pads[i], the primary-input pads followed by the primary-output ones.
	poff   []int32
	pinsOn []int32
	pads   []geom.Point
	sums   []netSum
	// nets[off[g]:off[g+1]] are gate g's distinct nets.
	off  []int32
	nets []int32
	ctr  []geom.Point // each gate's cell center, swapped with the cells
	// The scanned cell's center as signed coordinates, its nets, and
	// their pinSums.
	qa    [4]int
	aNets []int32
	aPins []pinSum
}

func newRefiner(p *Placement, nl *netlist.Netlist) *refiner {
	ng, nn := len(p.Cells), nl.NumNets()
	r := &refiner{
		p:    p,
		poff: make([]int32, nn+1),
		pads: append(slices.Clip(p.PIPads), p.POPads...),
		sums: make([]netSum, nn),
		off:  make([]int32, ng+1),
		ctr:  make([]geom.Point, ng),
	}
	for g := range r.ctr {
		r.ctr[g] = p.GateCenter(g)
	}
	total := 0
	for id := range nl.Nets {
		total += 1 + nl.Nets[id].FanoutCount()
	}
	r.pinsOn = make([]int32, 0, total)
	for id := range nl.Nets {
		n := &nl.Nets[id]
		if n.IsPI() {
			r.pinsOn = append(r.pinsOn, ^int32(n.PI))
		} else {
			r.pinsOn = append(r.pinsOn, int32(n.Driver))
		}
		for _, s := range n.Sinks {
			r.pinsOn = append(r.pinsOn, int32(s.Gate))
		}
		for _, po := range n.POs {
			r.pinsOn = append(r.pinsOn, ^int32(len(p.PIPads)+po))
		}
		r.poff[id+1] = int32(len(r.pinsOn))
	}
	// A gate with several pins on one net lists that net once. Nets are
	// visited in order, so last[g], 1 + the last net listed for g, dedups.
	last := make([]int32, ng)
	visit := func(fill bool) {
		for id := range nl.Nets {
			for _, g := range r.pinsOf(int32(id)) {
				if g < 0 || last[g] == int32(id)+1 {
					continue
				}
				last[g] = int32(id) + 1
				if fill {
					r.nets[r.off[g]] = int32(id)
				}
				r.off[g]++
			}
		}
	}
	visit(false)
	sum := int32(0)
	for g := 0; g < ng; g++ {
		sum, r.off[g] = sum+r.off[g], sum
	}
	r.off[ng] = sum
	r.nets = make([]int32, sum)
	clear(last)
	visit(true)
	// The fill advanced each off[g] to the next gate's start.
	copy(r.off[1:], r.off[:ng])
	r.off[0] = 0
	return r
}

// pinsOf returns net id's pins.
func (r *refiner) pinsOf(id int32) []int32 { return r.pinsOn[r.poff[id]:r.poff[id+1]] }

// netsOf returns gate g's distinct nets.
func (r *refiner) netsOf(g int) []int32 { return r.nets[r.off[g]:r.off[g+1]] }

// sum returns net id's summary, computing it if a move invalidated it.
func (r *refiner) sum(id int32) *netSum {
	s := &r.sums[id]
	if s.ok {
		return s
	}
	for k := range s.top {
		s.top[k], s.rest[k], s.holder[k] = math.MinInt, math.MinInt, -2
	}
	for _, g := range r.pinsOf(id) {
		if g >= 0 {
			s.add(r.ctr[g], g)
		} else {
			s.add(r.pads[^g], -1)
		}
	}
	s.hpwl = s.top[0] + s.top[1] + s.top[2] + s.top[3]
	s.ok = true
	return s
}

// swap exchanges cells a and b and invalidates the summaries of their
// nets. Their widths are equal, so their centers trade places exactly.
func (r *refiner) swap(a, b int) {
	r.p.SwapCells(a, b)
	r.ctr[a], r.ctr[b] = r.ctr[b], r.ctr[a]
	for _, g := range [2]int{a, b} {
		for _, id := range r.netsOf(g) {
			r.sums[id].ok = false
		}
	}
}

// begin starts the scan of cell a's candidates. Nothing moves until the
// scan ends, so a's pinSums hold for every candidate.
func (r *refiner) begin(a int) {
	r.qa, r.aNets = signed(r.ctr[a]), r.netsOf(a)
	r.aPins = r.aPins[:0]
	for _, id := range r.aNets {
		s := r.sum(id)
		r.aPins = append(r.aPins, pinSum{hpwl: s.hpwl, wo: s.without(int32(a))})
	}
}

// gain returns the HPWL that swapping the scanned cell with b saves over
// the distinct nets of both. A net on both saves nothing: its pins at
// a's center and those at b's trade places, so its points, and its
// box, stay as they were.
//
//smlint:hot
func (r *refiner) gain(b int) int {
	bNets := r.netsOf(b)
	gain, shared := 0, false
	for _, id := range bNets {
		if slices.Contains(r.aNets, id) {
			shared = true
			continue
		}
		s := r.sum(id)
		gain += s.hpwl - hpwlWith(s.without(int32(b)), r.qa)
	}
	qb := signed(r.ctr[b])
	for j, id := range r.aNets {
		if shared && slices.Contains(bNets, id) {
			continue
		}
		gain += r.aPins[j].hpwl - hpwlWith(r.aPins[j].wo, qb)
	}
	return gain
}
