package place

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"splitmfg/internal/bench"
	"splitmfg/internal/cell"
	"splitmfg/internal/geom"
	"splitmfg/internal/netlist"
)

// placeRef is the straightforward placer that Place must reproduce bit
// for bit: global placement re-ranking every gate from index order with
// sort.Slice on every iteration, legalization, and a detailed placement
// that prices each candidate swap by rebuilding the bounding box of
// every net on both cells, before and after the swap. It shares only
// the die sizing arithmetic's inputs, placePads and hilbertD2XY with
// Place.
func placeRef(nl *netlist.Netlist, masters []*cell.Master, opt Options) (*Placement, error) {
	if len(masters) != nl.NumGates() {
		return nil, fmt.Errorf("place: %d masters for %d gates", len(masters), nl.NumGates())
	}
	if opt.UtilPercent <= 0 || opt.UtilPercent > MaxUtilPercent {
		return nil, fmt.Errorf("place: utilization %d%% out of range (1..%d)", opt.UtilPercent, MaxUtilPercent)
	}
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

	rng := rand.New(rand.NewSource(opt.Seed)) //smlint:rawseed the reference must draw exactly what Place draws from the same seed
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
	globalPlaceRef(p, nl, xs, ys, iterations)
	slack := float64(100-opt.UtilPercent) / 100
	legalized := false
	var err error
	for _, frac := range []float64{slack, slack / 2, 0} {
		if err = legalizeRef(p, nl, masters, xs, ys, int(frac*float64(die.W()))); err == nil {
			legalized = true
			break
		}
	}
	if !legalized {
		return nil, err
	}
	refineRef(p, nl, 3)
	return p, nil
}

func globalPlaceRef(p *Placement, nl *netlist.Netlist, xs, ys []float64, iters int) {
	die := p.Die
	w, h := float64(die.W()), float64(die.H())
	for it := 0; it < iters; it++ {
		nx := make([]float64, len(xs))
		ny := make([]float64, len(ys))
		wt := make([]float64, len(xs))
		addPull := func(g int, px, py, weight float64) {
			nx[g] += px * weight
			ny[g] += py * weight
			wt[g] += weight
		}
		for _, n := range nl.Nets {
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
			weight := 1.0 / float64(cnt-1)
			if !n.IsPI() {
				addPull(n.Driver, cx, cy, weight)
			}
			for _, s := range n.Sinks {
				addPull(s.Gate, cx, cy, weight)
			}
		}
		alpha := 0.85
		for g := range xs {
			if wt[g] > 0 {
				xs[g] = (1-alpha)*xs[g] + alpha*nx[g]/wt[g]
				ys[g] = (1-alpha)*ys[g] + alpha*ny[g]/wt[g]
			}
		}
		rankSpreadRef(xs, w, 0.45)
		rankSpreadRef(ys, h, 0.45)
	}
}

func rankSpreadRef(v []float64, span, beta float64) {
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

func legalizeRef(p *Placement, nl *netlist.Netlist, masters []*cell.Master, xs, ys []float64, maxGap int) error {
	die := p.Die
	order := make([]int, nl.NumGates())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return xs[order[a]] < xs[order[b]] })
	rowCursor := make([]int, p.NumRows)
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
			if x+m.WidthNM > die.Hi.X {
				x = (die.Hi.X - m.WidthNM) / cell.SiteWidth * cell.SiteWidth
			}
			if x < rowCursor[r] || x+m.WidthNM > die.Hi.X {
				continue
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

func refineRef(p *Placement, nl *netlist.Netlist, passes int) {
	if passes <= 0 {
		passes = 2
	}
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

// checkPlaceMatchesRef fails the test unless Place and placeRef return
// deeply equal placements, or the same error, for nl.
func checkPlaceMatchesRef(t *testing.T, nl *netlist.Netlist, opt Options) {
	t.Helper()
	masters, err := cell.NewNangate45Like().Bind(nl)
	if err != nil {
		t.Fatal(err)
	}
	got, gotErr := Place(nl, masters, opt)
	want, wantErr := placeRef(nl, masters, opt)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s %+v: Place error %v, reference %v", nl.Name, opt, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		moved := 0
		for g := range want.Cells {
			if got.Cells[g] != want.Cells[g] {
				moved++
			}
		}
		t.Fatalf("%s %+v: placement differs from the reference (%d of %d cells elsewhere, HPWL %d against %d)",
			nl.Name, opt, moved, len(want.Cells), got.HPWL(nl), want.HPWL(nl))
	}
}

// TestPlaceMatchesReference pins Place to placeRef on every ISCAS-85
// design at three utilizations and two seeds, and on superblue18 at
// scale 400.
func TestPlaceMatchesReference(t *testing.T) {
	for _, name := range bench.ISCASNames() {
		nl, err := bench.ISCAS85(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, util := range []int{55, 70, 85} {
			for _, seed := range []int64{1, 2} {
				checkPlaceMatchesRef(t, nl, Options{UtilPercent: util, Seed: seed})
			}
		}
	}
	nl, err := bench.Superblue("superblue18", 400)
	if err != nil {
		t.Fatal(err)
	}
	util, err := bench.SuperblueUtil("superblue18")
	if err != nil {
		t.Fatal(err)
	}
	checkPlaceMatchesRef(t, nl, Options{UtilPercent: util, Seed: 1})
}

// FuzzPlaceMatchesReference pins Place to placeRef on generated
// netlists of at most 300 gates. The inputs pick the generator's seed,
// size, locality window, locality and flip-flop ratio (small windows
// exhaust the generator's distinct-fan-in retries, so a gate can read
// one net on two pins), the utilization (40–95%) and the placement seed.
func FuzzPlaceMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(120), uint8(8), uint8(0), uint8(200), uint8(40), uint8(30), int64(1))
	f.Add(int64(7), uint16(299), uint8(30), uint8(3), uint8(255), uint8(0), uint8(55), int64(3))
	f.Add(int64(3), uint16(16), uint8(1), uint8(1), uint8(255), uint8(127), uint8(0), int64(-5))
	f.Fuzz(func(t *testing.T, genSeed int64, gates uint16, pis, window, locality, dff, util uint8, seed int64) {
		n := 1 + int(gates%300)
		nl, err := bench.Generate(bench.Spec{
			Name:     "fuzz",
			PIs:      1 + int(pis%40),
			POs:      min(1+int(pis/40), n), // Generate rejects more POs than gates
			Gates:    n,
			Seed:     genSeed,
			DFFRatio: float64(dff%128) / 255,
			Locality: float64(locality) / 255,
			Window:   int(window % 32),
		})
		if err != nil {
			t.Skip(err)
		}
		checkPlaceMatchesRef(t, nl, Options{UtilPercent: 40 + int(util%56), Seed: seed})
	})
}

// TestRankSpreadTies checks rankSpread against rankSpreadRef where values
// tie, and so where the two sorts must break ties alike: no design
// reaches that, since the blended coordinates are distinct.
func TestRankSpreadTies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	negZero := math.Copysign(0, -1)
	allEqual := make([]float64, 200)
	for i := range allEqual {
		allEqual[i] = 42
	}
	oneTie := make([]float64, 300)
	for i := range oneTie {
		oneTie[i] = rng.Float64() * 1e5
	}
	oneTie[250] = oneTie[17]
	manyTies := make([]float64, 1000)
	for i := range manyTies {
		manyTies[i] = float64(rng.Intn(40))
	}
	for _, c := range []struct {
		name string
		v    []float64
	}{
		{"all equal", allEqual},
		{"one tie", oneTie},
		{"many ties", manyTies},
		{"signed zeros", []float64{0, negZero, 1, 0, negZero, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := append([]float64(nil), c.v...)
			want := append([]float64(nil), c.v...)
			rankSpread(got, 1e5, 0.45, make([]rankKey, len(got)))
			rankSpreadRef(want, 1e5, 0.45)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("value %d is %v, reference %v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestLegalizeTieBreak pins legalize's choice between rows of equal cost
// to the lowest, as legalizeRef's scan of every row makes it. The last
// cell costs 26,600 nm (19 rows) both in its own row, where 70 fillers
// push it that far right, and in row 0, free at its spot, which the
// outward scan reaches only at a row distance equal to that best cost.
func TestLegalizeTieBreak(t *testing.T) {
	const rows, fillers = 20, 70
	filler := &cell.Master{Name: "FILL", WidthNM: 2 * cell.SiteWidth}
	wide := &cell.Master{Name: "WIDE", WidthNM: 316 * cell.SiteWidth}
	n := (rows-1)*fillers + 1
	nl, err := bench.Generate(bench.Spec{Name: "ties", PIs: 1, POs: 1, Gates: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	masters := make([]*cell.Master, n)
	xs, ys := make([]float64, n), make([]float64, n)
	for r := 1; r < rows; r++ {
		for k := 0; k < fillers; k++ {
			g := (r-1)*fillers + k
			masters[g] = filler
			xs[g] = float64(k*filler.WidthNM + filler.WidthNM/2)
			ys[g] = float64(r*cell.RowHeight + cell.RowHeight/2)
		}
	}
	last := n - 1
	masters[last] = wide
	xs[last] = float64(wide.WidthNM / 2) // wants x = 0, yet sorts after every filler
	ys[last] = float64((rows-1)*cell.RowHeight + cell.RowHeight/2)
	die := geom.Rect{Hi: geom.Point{X: 600 * cell.SiteWidth, Y: rows * cell.RowHeight}}
	got := &Placement{Die: die, NumRows: rows, Cells: make([]Cell, n)}
	want := &Placement{Die: die, NumRows: rows, Cells: make([]Cell, n)}
	if err := got.legalize(nl, masters, xs, ys, 0); err != nil {
		t.Fatal(err)
	}
	if err := legalizeRef(want, nl, masters, xs, ys, 0); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Cells, want.Cells) {
		t.Fatalf("legalize differs from the reference: last cell at %v, reference %v", got.Cells[last].Loc, want.Cells[last].Loc)
	}
	if want.Cells[last].Loc.Y != 0 {
		t.Fatalf("reference put the last cell at %v: the tie this test sets up is gone", want.Cells[last].Loc)
	}
}

func benchmarkPlace(b *testing.B, nl *netlist.Netlist, util int) {
	masters, err := cell.NewNangate45Like().Bind(nl)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Place(nl, masters, Options{UtilPercent: util, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlaceC3540(b *testing.B) {
	nl, err := bench.ISCAS85("c3540")
	if err != nil {
		b.Fatal(err)
	}
	benchmarkPlace(b, nl, 70)
}

// BenchmarkPlaceSuperblue18 places superblue18 at scale 100 (about 6.7k
// gates), the size perfbench's superblue-matrix workload places.
func BenchmarkPlaceSuperblue18(b *testing.B) {
	nl, err := bench.Superblue("superblue18", 100)
	if err != nil {
		b.Fatal(err)
	}
	util, err := bench.SuperblueUtil("superblue18")
	if err != nil {
		b.Fatal(err)
	}
	benchmarkPlace(b, nl, util)
}
