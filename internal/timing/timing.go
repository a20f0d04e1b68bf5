// Package timing provides static timing analysis and power/area estimation
// over placed-and-routed designs — the PPA side of the paper's evaluation
// (Sec. 5.3 and Fig. 6). The delay model is the standard linear one: gate
// delay is intrinsic plus drive-resistance times load, wire delay is a
// lumped RC term from the routed per-layer wirelengths. The analysis is
// "conservative, slow-corner style" in the paper's spirit: all loads are
// worst-cased, no useful skew.
//
// Correction cells contribute wire RC only: per the paper they "only
// implement some BEOL wires", so they add no device delay, leakage, or
// internal power.
package timing

import (
	"fmt"
	"math"

	"splitmfg/internal/cell"
	"splitmfg/internal/geom"
	"splitmfg/internal/layout"
	"splitmfg/internal/netlist"
)

// taggedRouteIDs returns the design's route IDs in ascending order.
// Several routed entities (trunk, stubs, restoration wires) can map to the
// same net, and float accumulation is not associative: summing their RC in
// any other order would make the last ulp of delay/power differ from run
// to run, breaking byte-stable golden reports. The design's dense table
// already yields ascending IDs.
func taggedRouteIDs(d *layout.Design) []int {
	return d.TaggedRouteIDs()
}

// NetLoad carries the physical load of one netlist net.
type NetLoad struct {
	WireCapFF   float64 // total routed metal capacitance
	WireDelayPS float64 // lumped RC delay of the routed tree
}

// PPA is the power/performance/area summary of a design.
type PPA struct {
	AreaUM2       float64 // die outline area
	PowerUW       float64 // leakage + switching estimate
	DelayPS       float64 // critical combinational path
	WirelengthUM  float64 // total routed wirelength
	Vias          int64   // total via count
	OverflowEdges int     // routing-capacity violations ("DRC-dirty" proxy)
}

// Overhead returns (area%, power%, delay%) of p relative to base.
func (p PPA) Overhead(base PPA) (area, power, delay float64) {
	pct := func(v, b float64) float64 {
		if b == 0 {
			return 0
		}
		return (v - b) / b * 100
	}
	return pct(p.AreaUM2, base.AreaUM2), pct(p.PowerUW, base.PowerUW), pct(p.DelayPS, base.DelayPS)
}

// String formats the PPA one-per-line for reports.
func (p PPA) String() string {
	return fmt.Sprintf("area=%.0fµm² power=%.1fµW delay=%.0fps WL=%.0fµm vias=%d overflow=%d",
		p.AreaUM2, p.PowerUW, p.DelayPS, p.WirelengthUM, p.Vias, p.OverflowEdges)
}

// viaCapFF is the capacitance of one via cut (fF) — vias are a real load,
// and the defense's lifting adds many of them (Table 2).
const viaCapFF = 0.9

// Activity and supply assumptions (paper: 0.95V, conservative corner).
const (
	switchingActivity = 0.1  // toggles per cycle per net
	clockGHz          = 1.0  // reference frequency
	supplyV           = 0.95 // volts
)

// LoadsFromDesign computes per-net wire loads by summing every routed
// entity attached to the net (stubs, lifted trunks, and BEOL restoration
// wires all carry layout.Design.NetOf tags pointing at the net they
// implement).
func LoadsFromDesign(d *layout.Design, lib *cell.Library) []NetLoad {
	loads := make([]NetLoad, d.Netlist.NumNets())
	for _, routeID := range taggedRouteIDs(d) {
		netID := d.NetOf[routeID]
		if netID < 0 || netID >= len(loads) {
			continue
		}
		rn := d.Router.Net(routeID)
		if rn == nil {
			continue
		}
		var capFF, delay float64
		for _, e := range rn.Edges {
			if d.Grid.IsVia(e) {
				capFF += viaCapFF
				delay += 0.4 // small fixed via delay (ps)
				continue
			}
			z := d.Grid.NodeAt(e.A).Z
			lenUM := float64(d.Grid.GCell) / geom.NMPerMicron
			c := lib.WireCapPerUM[z] * lenUM
			r := lib.WireResPerUM[z] * lenUM
			capFF += c
			// float64() forces rounding before the add so the compiler
			// cannot fuse into an architecture-dependent FMA (golden
			// reports compare these sums byte-for-byte).
			delay += float64(0.5 * r * c) // distributed RC
		}
		loads[netID].WireCapFF += capFF
		loads[netID].WireDelayPS += delay
	}
	return loads
}

// Analyze runs STA and the power model over a netlist with bound masters
// and per-net loads, against the given die outline.
func Analyze(nl *netlist.Netlist, masters []*cell.Master, loads []NetLoad, die geom.Rect) (PPA, error) {
	var p PPA
	if len(masters) != nl.NumGates() {
		return p, fmt.Errorf("timing: %d masters for %d gates", len(masters), nl.NumGates())
	}
	if len(loads) != nl.NumNets() {
		return p, fmt.Errorf("timing: %d loads for %d nets", len(loads), nl.NumNets())
	}
	order, ok := nl.TopoOrder()
	if !ok {
		return p, fmt.Errorf("timing: netlist has a combinational loop")
	}
	// Load per net: wire cap + sink pin caps (+ a pad cap per PO).
	const padCapFF = 4.0
	netCap := make([]float64, nl.NumNets())
	for _, n := range nl.Nets {
		c := loads[n.ID].WireCapFF
		for _, s := range n.Sinks {
			c += masters[s.Gate].InputCap
		}
		c += float64(float64(len(n.POs)) * padCapFF) // float64(): no FMA, see LoadsFromDesign
		netCap[n.ID] = c
	}
	// Arrival times per net (ps). PIs and DFF outputs start at 0.
	arr := make([]float64, nl.NumNets())
	for _, gid := range order {
		g := nl.Gates[gid]
		if g.Type.IsSequential() {
			arr[g.Out] = masters[gid].Delay(netCap[g.Out]) + loads[g.Out].WireDelayPS
			continue
		}
		worst := 0.0
		for _, netID := range g.Fanin {
			a := arr[netID]
			if a > worst {
				worst = a
			}
		}
		arr[g.Out] = worst + masters[gid].Delay(netCap[g.Out]) + loads[g.Out].WireDelayPS
	}
	// Critical path: worst arrival at any PO or DFF D input.
	crit := 0.0
	for _, netID := range nl.PONets {
		crit = math.Max(crit, arr[netID])
	}
	for _, g := range nl.Gates {
		if g.Type.IsSequential() {
			crit = math.Max(crit, arr[g.Fanin[0]])
		}
	}
	// Power: leakage + internal switching + wire switching.
	var leakNW, dynFJ float64
	for _, g := range nl.Gates {
		leakNW += masters[g.ID].Leakage
		dynFJ += float64(switchingActivity * masters[g.ID].SwitchE) // float64(): no FMA, see LoadsFromDesign
	}
	for _, n := range nl.Nets {
		dynFJ += float64(switchingActivity * 0.5 * netCap[n.ID] * supplyV * supplyV)
	}
	// fJ per cycle at clockGHz -> µW: 1 fJ/ns = 1 µW.
	p.PowerUW = leakNW/1000 + dynFJ*clockGHz
	p.DelayPS = crit
	p.AreaUM2 = float64(die.Area()) / (geom.NMPerMicron * geom.NMPerMicron)
	return p, nil
}

// AnalyzeDesign is the convenience wrapper: derive loads from the routed
// design and report full PPA including wirelength/via/overflow counts.
func AnalyzeDesign(d *layout.Design, lib *cell.Library) (PPA, error) {
	loads := LoadsFromDesign(d, lib)
	p, err := Analyze(d.Netlist, d.Masters, loads, d.Placement.Die)
	if err != nil {
		return p, err
	}
	s := d.Router.ComputeStats()
	p.WirelengthUM = float64(s.TotalWirelength) / geom.NMPerMicron
	p.Vias = s.TotalVias
	p.OverflowEdges = s.OverflowEdges
	return p, nil
}

// AnalyzeRestored reports PPA of a protected design against its original
// netlist: the routed entities of the protected design (tagged with
// original-net IDs via Design.NetOf) provide the loads, while the logical
// structure and masters come from the original netlist. This mirrors the
// paper's postRoute evaluation after BEOL restoration with the misleading
// arcs timing-disabled.
func AnalyzeRestored(d *layout.Design, original *netlist.Netlist, masters []*cell.Master, lib *cell.Library) (PPA, error) {
	loads := make([]NetLoad, original.NumNets())
	for _, routeID := range taggedRouteIDs(d) {
		netID := d.NetOf[routeID]
		if netID < 0 || netID >= len(loads) {
			continue
		}
		rn := d.Router.Net(routeID)
		if rn == nil {
			continue
		}
		for _, e := range rn.Edges {
			if d.Grid.IsVia(e) {
				loads[netID].WireCapFF += viaCapFF
				loads[netID].WireDelayPS += 0.4
				continue
			}
			z := d.Grid.NodeAt(e.A).Z
			lenUM := float64(d.Grid.GCell) / geom.NMPerMicron
			c := lib.WireCapPerUM[z] * lenUM
			r := lib.WireResPerUM[z] * lenUM
			loads[netID].WireCapFF += c
			loads[netID].WireDelayPS += float64(0.5 * r * c) // float64(): no FMA, see LoadsFromDesign
		}
	}
	p, err := Analyze(original, masters, loads, d.Placement.Die)
	if err != nil {
		return p, err
	}
	s := d.Router.ComputeStats()
	p.WirelengthUM = float64(s.TotalWirelength) / geom.NMPerMicron
	p.Vias = s.TotalVias
	p.OverflowEdges = s.OverflowEdges
	return p, nil
}
