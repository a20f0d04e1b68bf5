// Package place is the placement substrate standing in for Cadence Innovus'
// placer. It provides row-based global placement (iterative net-centroid
// pull with bin spreading) followed by Tetris-style legalization, giving
// layouts with the property every proximity attack exploits: connected
// gates end up near each other (unless the netlist itself is misleading,
// which is exactly the paper's defense).
package place

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"splitmfg/internal/cell"
	"splitmfg/internal/geom"
	"splitmfg/internal/netlist"
)

// MaxUtilPercent is the highest row utilization Place accepts.
const MaxUtilPercent = 95

// Options configures placement.
type Options struct {
	UtilPercent int   // target row utilization (paper: 56–77 for superblue)
	Seed        int64 // RNG seed for the initial scatter
	Iterations  int   // global-placement iterations; 0 = default (24)
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
	iters := opt.Iterations
	if iters == 0 {
		iters = 24
	}
	if iters < 0 {
		iters = -iters - 1 // -1 = zero iterations, -9 = eight, etc. (test hook)
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
	p.globalPlace(nl, masters, xs, ys, iters)
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
	nBins := int(math.Sqrt(float64(nl.NumGates())))/2 + 2
	for it := 0; it < iters; it++ {
		// Pull each gate toward the centroid of everything it connects to.
		nx := make([]float64, len(xs))
		ny := make([]float64, len(ys))
		wt := make([]float64, len(xs))
		addPull := func(g int, px, py, weight float64) {
			nx[g] += px * weight
			ny[g] += py * weight
			wt[g] += weight
		}
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
		rankSpread(xs, w, 0.45)
		rankSpread(ys, h, 0.45)
	}
	_ = nBins
}

// rankSpread moves each value part-way toward the position its rank would
// occupy under a uniform distribution over [0, span).
func rankSpread(v []float64, span, beta float64) {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	n := float64(len(v))
	for rank, g := range idx {
		target := (float64(rank) + 0.5) / n * span
		v[g] = (1-beta)*v[g] + beta*target
	}
}

// legalize snaps cells to rows and sites without overlap (Tetris). maxGap
// bounds how far right of a row's cursor a cell may be placed; unused space
// left of the cursor is unreachable later, so bounding the gap bounds the
// total waste.
func (p *Placement) legalize(nl *netlist.Netlist, masters []*cell.Master, xs, ys []float64, maxGap int) error {
	die := p.Die
	order := make([]int, nl.NumGates())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return xs[order[a]] < xs[order[b]] })
	rowCursor := make([]int, p.NumRows) // next free x per row
	for i := range rowCursor {
		rowCursor[i] = die.Lo.X
	}
	for _, g := range order {
		m := masters[g]
		wantX := int(xs[g]) - m.WidthNM/2
		wantRow := geom.Clamp(int(ys[g])/cell.RowHeight, 0, p.NumRows-1)
		bestRow, bestX, bestCost := -1, 0, math.MaxFloat64
		for r := 0; r < p.NumRows; r++ {
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
			dy := math.Abs(float64(r-wantRow)) * float64(cell.RowHeight)
			dx := math.Abs(float64(x - wantX))
			cost := dx + dy
			if cost < bestCost {
				bestCost, bestRow, bestX = cost, r, x
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
	sort.Slice(spans, func(a, b int) bool {
		if spans[a].y != spans[b].y {
			return spans[a].y < spans[b].y
		}
		return spans[a].lo < spans[b].lo
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

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
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
func (p *Placement) Refine(nl *netlist.Netlist, passes int) {
	if passes <= 0 {
		passes = 2
	}
	// Nets touching each gate.
	netsOf := make([][]int, len(p.Cells))
	for _, n := range nl.Nets {
		add := func(g int) { netsOf[g] = append(netsOf[g], n.ID) }
		if !n.IsPI() {
			add(n.Driver)
		}
		for _, s := range n.Sinks {
			add(s.Gate)
		}
	}
	// The swap cost is evaluated twice per candidate pair in the innermost
	// loop; a per-call map for net dedup was the placer's dominant
	// allocation. Epoch-stamped scratch over net IDs plus a reused point
	// buffer make it allocation-free.
	seenEp := make([]int32, nl.NumNets())
	var epoch int32
	var pts []geom.Point
	hpwlOf := func(netID int) int {
		pts = p.AppendNetPoints(pts[:0], nl, netID)
		return geom.HPWL(pts)
	}
	cost := func(a, b int) int {
		epoch++
		total := 0
		for _, id := range netsOf[a] {
			if seenEp[id] != epoch {
				seenEp[id] = epoch
				total += hpwlOf(id)
			}
		}
		for _, id := range netsOf[b] {
			if seenEp[id] != epoch {
				seenEp[id] = epoch
				total += hpwlOf(id)
			}
		}
		return total
	}
	// Spatial index: cells by (row, approximate column bucket), stored as a
	// dense grid. Swapping only exchanges locations, so the set of occupied
	// buckets is invariant across passes and the grid extent is fixed.
	const colPitch = 8 * cell.SiteWidth
	rowOf := func(g int) int { return p.Cells[g].Loc.Y / cell.RowHeight }
	colOf := func(g int) int { return p.Cells[g].Loc.X / colPitch }
	if len(p.Cells) == 0 {
		return
	}
	rowBase, colBase := rowOf(0), colOf(0)
	rowMax, colMax := rowBase, colBase
	for g := range p.Cells {
		r, c := rowOf(g), colOf(g)
		rowBase, rowMax = min(rowBase, r), max(rowMax, r)
		colBase, colMax = min(colBase, c), max(colMax, c)
	}
	nRows, nCols := rowMax-rowBase+1, colMax-colBase+1
	index := make([][]int, nRows*nCols)
	for pass := 0; pass < passes; pass++ {
		for i := range index {
			index[i] = index[i][:0]
		}
		for g := range p.Cells {
			i := (rowOf(g)-rowBase)*nCols + (colOf(g) - colBase)
			index[i] = append(index[i], g)
		}
		improved := 0
		for a := range p.Cells {
			ra, ca := rowOf(a)-rowBase, colOf(a)-colBase
			bestGain, bestB := 0, -1
			for dr := -2; dr <= 2; dr++ {
				for dc := -2; dc <= 2; dc++ {
					r, c := ra+dr, ca+dc
					if r < 0 || r >= nRows || c < 0 || c >= nCols {
						continue
					}
					for _, b := range index[r*nCols+c] {
						if b == a || p.Cells[a].Master.WidthNM != p.Cells[b].Master.WidthNM {
							continue
						}
						before := cost(a, b)
						p.SwapCells(a, b)
						after := cost(a, b)
						p.SwapCells(a, b)
						if gain := before - after; gain > bestGain {
							bestGain, bestB = gain, b
						}
					}
				}
			}
			if bestB >= 0 {
				p.SwapCells(a, bestB)
				improved++
			}
		}
		if improved == 0 {
			return
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
