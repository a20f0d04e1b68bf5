// Package baselines re-implements the prior-art split-manufacturing
// defenses the paper compares against in Tables 4, 5, and 6:
//
//   - Placement perturbation, Wang et al. DAC'16 [5]: selected
//     security-critical gates are moved away from their optimal locations
//     by pairwise cell swaps before routing.
//   - Sengupta et al. ICCAD'17 [8], four strategies: Random relocation,
//     G-Color (graph coloring: mutually-unconnected gates are clustered so
//     physical neighbors are never logical neighbors), G-Type1 (cluster by
//     gate type), G-Type2 (type clustering with balanced bins).
//   - Pin swapping, Rajendran et al. DATE'13 [3]: partition the design into
//     blocks and swap the block-level output pins, perturbing only the
//     system-level interconnect.
//   - Routing perturbation, Wang et al. ASP-DAC'17 [12]: reroute selected
//     nets with scenic detours above the split layer (netlist untouched).
//   - Synergistic SM, Feng et al. ICCAD'17 [9]: combined layer elevation
//     plus detouring with congestion awareness.
//   - Routing blockage, Magaña et al. TVLSI'17 [7]: insert lower-layer
//     routing blockages, implicitly detouring wires upward (measured by
//     ∆V67/∆V78 in Table 6).
//
// Each builder returns a routed layout.Design on the *original* netlist
// (none of these schemes change functionality), ready for the same attack
// harness as the paper's proposed scheme.
package baselines

import (
	"fmt"
	"math/rand"
	"sort"

	"splitmfg/internal/cell"
	"splitmfg/internal/geom"
	"splitmfg/internal/layout"
	"splitmfg/internal/netlist"
	"splitmfg/internal/place"
	"splitmfg/internal/route"
)

// Options shared by the baseline builders.
type Options struct {
	UtilPercent int
	Seed        int64
	RouteOpt    route.Options
	// Fraction of gates/nets perturbed (defense-specific meaning); zero
	// selects each scheme's published-ish default.
	Fraction float64
}

func (o Options) withDefaults() Options {
	if o.UtilPercent == 0 {
		o.UtilPercent = 70
	}
	if o.Fraction == 0 {
		o.Fraction = 0.15
	}
	return o
}

func placeBound(nl *netlist.Netlist, lib *cell.Library, opt Options) ([]*cell.Master, *place.Placement, error) {
	masters, err := lib.Bind(nl)
	if err != nil {
		return nil, nil, err
	}
	pl, err := place.Place(nl, masters, place.Options{UtilPercent: opt.UtilPercent, Seed: opt.Seed})
	if err != nil {
		return nil, nil, err
	}
	return masters, pl, nil
}

// routeFlat builds the design and routes every net, lifts mapping net IDs
// to minimum layers (nil = none lifted).
func routeFlat(nl *netlist.Netlist, masters []*cell.Master, pl *place.Placement, ropt route.Options, lifts map[int]int) (*layout.Design, error) {
	d := layout.NewDesign(nl, masters, pl, ropt)
	if err := d.RouteAll(lifts); err != nil {
		return nil, err
	}
	return d, nil
}

// PlacementPerturbation implements [5]: swap the locations of randomly
// selected same-width gate pairs before routing, displacing each selected
// gate from its wirelength-optimal position.
func PlacementPerturbation(nl *netlist.Netlist, lib *cell.Library, opt Options) (*layout.Design, error) {
	opt = opt.withDefaults()
	masters, pl, err := placeBound(nl, lib, opt)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed ^ 0xa5)) //smlint:rawseed engine-scoped seed already derived upstream by the flow layer; the XOR is a fixed domain separator and re-mixing would shift every golden byte pin
	perturbPairs(pl, rng, int(float64(nl.NumGates())*opt.Fraction/2), 0)
	return routeFlat(nl, masters, pl, opt.RouteOpt, nil)
}

// perturbPairs swaps up to n same-width pairs; minDistNM forces swaps to
// move cells at least that far (0 = any).
func perturbPairs(pl *place.Placement, rng *rand.Rand, n, minDistNM int) {
	byWidth := map[int][]int{}
	for g, c := range pl.Cells {
		byWidth[c.Master.WidthNM] = append(byWidth[c.Master.WidthNM], g)
	}
	widths := make([]int, 0, len(byWidth))
	for w := range byWidth {
		widths = append(widths, w)
	}
	sort.Ints(widths)
	done := 0
	for tries := 0; tries < n*20 && done < n; tries++ {
		w := widths[rng.Intn(len(widths))]
		group := byWidth[w]
		if len(group) < 2 {
			continue
		}
		a := group[rng.Intn(len(group))]
		b := group[rng.Intn(len(group))]
		if a == b {
			continue
		}
		if minDistNM > 0 && pl.GateCenter(a).Manhattan(pl.GateCenter(b)) < minDistNM {
			continue
		}
		pl.SwapCells(a, b)
		done++
	}
}

// SenguptaStrategy selects one of [8]'s four techniques.
type SenguptaStrategy int

// The four published strategies.
const (
	Random SenguptaStrategy = iota
	GColor
	GType1
	GType2
)

// String names the strategy as in the paper's Table 4 header.
func (s SenguptaStrategy) String() string {
	switch s {
	case Random:
		return "Random"
	case GColor:
		return "G-Color"
	case GType1:
		return "G-Type1"
	case GType2:
		return "G-Type2"
	default:
		return fmt.Sprintf("Sengupta(%d)", int(s))
	}
}

// Sengupta implements the information-theoretic layout techniques of [8].
// All four strategies re-arrange cells so that physical proximity stops
// implying logical connectivity:
//
//   - Random: every cell is relocated to a uniformly random legal site.
//   - GColor: gates are greedily colored so adjacent (connected) gates get
//     different colors, then cells are laid out color-by-color — physical
//     neighbors share a color and are thus never connected.
//   - GType1: cells are laid out grouped by gate type (all NANDs together,
//     etc.), destroying connectivity-driven placement.
//   - GType2: like GType1 but the type groups are interleaved in balanced
//     bins, keeping the area distribution even.
func Sengupta(nl *netlist.Netlist, lib *cell.Library, strat SenguptaStrategy, opt Options) (*layout.Design, error) {
	opt = opt.withDefaults()
	masters, pl, err := placeBound(nl, lib, opt)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed ^ 0x5e9)) //smlint:rawseed engine-scoped seed already derived upstream by the flow layer; the XOR is a fixed domain separator and re-mixing would shift every golden byte pin
	order := make([]int, nl.NumGates())
	for i := range order {
		order[i] = i
	}
	switch strat {
	case Random:
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	case GColor:
		colors := greedyColor(nl)
		sort.SliceStable(order, func(a, b int) bool {
			if colors[order[a]] != colors[order[b]] {
				return colors[order[a]] < colors[order[b]]
			}
			return order[a] < order[b]
		})
	case GType1:
		sort.SliceStable(order, func(a, b int) bool {
			ta, tb := nl.Gates[order[a]].Type, nl.Gates[order[b]].Type
			if ta != tb {
				return ta < tb
			}
			return order[a] < order[b]
		})
	case GType2:
		// Balanced interleave: round-robin across type groups.
		groups := map[netlist.GateType][]int{}
		var types []netlist.GateType
		for _, g := range nl.Gates {
			if _, ok := groups[g.Type]; !ok {
				types = append(types, g.Type)
			}
			groups[g.Type] = append(groups[g.Type], g.ID)
		}
		sort.Slice(types, func(a, b int) bool { return types[a] < types[b] })
		order = order[:0]
		for i := 0; ; i++ {
			added := false
			for _, t := range types {
				if i < len(groups[t]) {
					order = append(order, groups[t][i])
					added = true
				}
			}
			if !added {
				break
			}
		}
	default:
		return nil, fmt.Errorf("baselines: unknown Sengupta strategy %d", strat)
	}
	permuteCellsToOrder(pl, order)
	return routeFlat(nl, masters, pl, opt.RouteOpt, nil)
}

// greedyColor colors the gate-adjacency graph (connected gates adjacent).
func greedyColor(nl *netlist.Netlist) []int {
	colors := make([]int, nl.NumGates())
	for i := range colors {
		colors[i] = -1
	}
	for _, g := range nl.Gates {
		used := map[int]bool{}
		for _, nb := range nl.FaninGates(g.ID) {
			if colors[nb] >= 0 {
				used[colors[nb]] = true
			}
		}
		for _, nb := range nl.FanoutGates(g.ID) {
			if colors[nb] >= 0 {
				used[colors[nb]] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		colors[g.ID] = c
	}
	return colors
}

// permuteCellsToOrder reassigns the existing legal sites (sorted row-major)
// to gates in the given order. Site shapes only fit same-width cells, so
// the permutation is done per width class to stay legal.
func permuteCellsToOrder(pl *place.Placement, order []int) {
	// Collect sites per width class in row-major order.
	type site struct {
		loc geom.Point
	}
	byWidth := map[int][]int{} // width -> gates in 'order' sequence
	for _, g := range order {
		w := pl.Cells[g].Master.WidthNM
		byWidth[w] = append(byWidth[w], g)
	}
	for w, gates := range byWidth {
		sites := make([]site, 0, len(gates))
		for _, c := range pl.Cells {
			if c.Master.WidthNM == w {
				sites = append(sites, site{c.Loc})
			}
		}
		sort.Slice(sites, func(a, b int) bool {
			if sites[a].loc.Y != sites[b].loc.Y {
				return sites[a].loc.Y < sites[b].loc.Y
			}
			return sites[a].loc.X < sites[b].loc.X
		})
		for i, g := range gates {
			pl.Cells[g].Loc = sites[i].loc
		}
	}
}

// PinSwapping implements [3]: the netlist is partitioned into blocks (by
// BFS clustering), and the output pins of randomly chosen block pairs are
// swapped at the block boundary before routing — only the system-level
// interconnect is perturbed, gate-level connections inside blocks stay
// intact (which is exactly the weakness the paper points out).
//
// The returned design routes the *perturbed* interconnect; the swap list
// is also returned so callers can reason about what was protected.
func PinSwapping(nl *netlist.Netlist, lib *cell.Library, opt Options) (*layout.Design, [][2]int, error) {
	opt = opt.withDefaults()
	blocks := clusterBlocks(nl, 24)
	masters, pl, err := placeBound(nl, lib, opt)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed ^ 0x9175)) //smlint:rawseed engine-scoped seed already derived upstream by the flow layer; the XOR is a fixed domain separator and re-mixing would shift every golden byte pin
	// Cross-block nets are the "block pins". Swap sink sets of random
	// pairs of cross-block nets that originate in different blocks.
	var crossNets []int
	for _, n := range nl.Nets {
		if n.IsPI() || len(n.Sinks) == 0 {
			continue
		}
		db := blocks[n.Driver]
		for _, s := range n.Sinks {
			if blocks[s.Gate] != db {
				crossNets = append(crossNets, n.ID)
				break
			}
		}
	}
	work := nl.Clone()
	var swaps [][2]int
	want := int(float64(len(crossNets)) * opt.Fraction)
	for tries := 0; tries < want*20 && len(swaps) < want; tries++ {
		a := crossNets[rng.Intn(len(crossNets))]
		b := crossNets[rng.Intn(len(crossNets))]
		if a == b {
			continue
		}
		// Swap one cross-block sink of each.
		pa, ok1 := crossSink(work, blocks, a)
		pb, ok2 := crossSink(work, blocks, b)
		if !ok1 || !ok2 || pa == pb {
			continue
		}
		if work.Gates[pa.Gate].Fanin[pa.Pin] == work.Gates[pb.Gate].Fanin[pb.Pin] {
			continue
		}
		if work.SwapCreatesLoop(pa, pb) {
			continue
		}
		if err := work.SwapSinks(pa, pb); err != nil {
			continue
		}
		swaps = append(swaps, [2]int{a, b})
	}
	// Route the perturbed netlist on the original placement; the attacker
	// sees misleading system-level wiring only.
	d, err := routeFlat(work, masters, pl, opt.RouteOpt, nil)
	if err != nil {
		return nil, nil, err
	}
	return d, swaps, nil
}

func crossSink(nl *netlist.Netlist, blocks []int, netID int) (netlist.PinRef, bool) {
	n := nl.Nets[netID]
	if n.Driver < 0 {
		return netlist.PinRef{}, false
	}
	db := blocks[n.Driver]
	for _, s := range n.Sinks {
		if blocks[s.Gate] != db {
			return s, true
		}
	}
	return netlist.PinRef{}, false
}

// clusterBlocks groups gates into connected blocks of roughly the given
// size via BFS over the connectivity graph.
func clusterBlocks(nl *netlist.Netlist, blockSize int) []int {
	blocks := make([]int, nl.NumGates())
	for i := range blocks {
		blocks[i] = -1
	}
	next := 0
	for seed := range blocks {
		if blocks[seed] >= 0 {
			continue
		}
		id := next
		next++
		queue := []int{seed}
		blocks[seed] = id
		count := 1
		for len(queue) > 0 && count < blockSize {
			g := queue[0]
			queue = queue[1:]
			for _, nb := range append(nl.FaninGates(g), nl.FanoutGates(g)...) {
				if blocks[nb] < 0 {
					blocks[nb] = id
					count++
					queue = append(queue, nb)
					if count >= blockSize {
						break
					}
				}
			}
		}
	}
	return blocks
}

// RoutingPerturbation implements [12]: a randomly selected fraction of
// nets is rerouted with elevated detours (lifted to M4/M5), without any
// netlist change.
func RoutingPerturbation(nl *netlist.Netlist, lib *cell.Library, opt Options) (*layout.Design, error) {
	opt = opt.withDefaults()
	masters, pl, err := placeBound(nl, lib, opt)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed ^ 0x12)) //smlint:rawseed engine-scoped seed already derived upstream by the flow layer; the XOR is a fixed domain separator and re-mixing would shift every golden byte pin
	lifts := map[int]int{}
	for _, n := range nl.Nets {
		if n.FanoutCount() > 0 && rng.Float64() < opt.Fraction {
			lifts[n.ID] = 4 // detour above the typical M3 split
		}
	}
	return routeFlat(nl, masters, pl, opt.RouteOpt, lifts)
}

// Synergistic implements [9]: layer elevation to M5/M6 for the selected
// nets plus placement-side spreading of their endpoints — the strongest
// prior routing-centric defense in Table 5.
func Synergistic(nl *netlist.Netlist, lib *cell.Library, opt Options) (*layout.Design, error) {
	opt = opt.withDefaults()
	masters, pl, err := placeBound(nl, lib, opt)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed ^ 0x599)) //smlint:rawseed engine-scoped seed already derived upstream by the flow layer; the XOR is a fixed domain separator and re-mixing would shift every golden byte pin
	// Spread the endpoints of the selected nets a little (placement part).
	perturbPairs(pl, rng, int(float64(nl.NumGates())*opt.Fraction/3), 4*cell.RowHeight)
	lifts := map[int]int{}
	for _, n := range nl.Nets {
		if n.FanoutCount() > 0 && rng.Float64() < opt.Fraction {
			lifts[n.ID] = 6 // elevate through the common split layers
		}
	}
	return routeFlat(nl, masters, pl, opt.RouteOpt, lifts)
}

// RoutingBlockage implements [7]: lower-layer capacity in randomly chosen
// regions is effectively blocked, forcing implicit detours upward. We
// model the blockage by halving the capacity available below M5 (capacity
// is global in our router, so the blockage fraction maps to a capacity
// reduction), which pushes wires into M5+ just as the published scheme's
// regional blockages do. Measured, like Table 6, by ∆V67/∆V78.
func RoutingBlockage(nl *netlist.Netlist, lib *cell.Library, opt Options) (*layout.Design, error) {
	opt = opt.withDefaults()
	masters, pl, err := placeBound(nl, lib, opt)
	if err != nil {
		return nil, err
	}
	d := layout.NewDesign(nl, masters, pl, opt.RouteOpt)
	if opt.RouteOpt.Capacity == 0 {
		// Halve the router's own default: that is the blockage. The
		// gcell pitch is at least 560 nm, so the default is at least 3
		// tracks and the half at least 1.
		d.Router.Opt.Capacity /= 2
	}
	if err := d.RouteAll(nil); err != nil {
		return nil, err
	}
	return d, nil
}
