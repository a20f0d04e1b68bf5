// Package metrics computes the paper's security metrics: the correct
// connection rate (CCR) of an attack's recovered assignment against the
// original netlist, distance statistics between truly connected gates
// (Table 1 / Fig. 4), and small statistical helpers shared by the
// benchmark harness.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"splitmfg/internal/geom"
	"splitmfg/internal/layout"
	"splitmfg/internal/netlist"
)

// DistStats summarizes a distance distribution in microns.
type DistStats struct {
	N                 int
	Mean, Median, Std float64
}

// ComputeDistStats converts nanometer distances to microns and summarizes.
func ComputeDistStats(nm []int) DistStats {
	var s DistStats
	s.N = len(nm)
	if s.N == 0 {
		return s
	}
	um := make([]float64, len(nm))
	var sum float64
	for i, d := range nm {
		um[i] = geom.Microns(d)
		sum += um[i]
	}
	s.Mean = sum / float64(s.N)
	sort.Float64s(um)
	if s.N%2 == 1 {
		s.Median = um[s.N/2]
	} else {
		s.Median = (um[s.N/2-1] + um[s.N/2]) / 2
	}
	var v float64
	for _, d := range um {
		v += float64((d - s.Mean) * (d - s.Mean)) // float64(): no FMA, see timing.LoadsFromDesign
	}
	s.Std = math.Sqrt(v / float64(s.N))
	return s
}

// String renders the stats like the paper's Table 1 rows.
func (s DistStats) String() string {
	return fmt.Sprintf("mean=%.2fµm median=%.2fµm std=%.2fµm (n=%d)", s.Mean, s.Median, s.Std, s.N)
}

// Assignment is an attack's output: for each pure-sink fragment ID, the
// driver fragment ID the attacker believes feeds it (-1 = unassigned).
type Assignment map[int]int

// TrueDriverOf returns, per the reference netlist, the gate/PI that should
// drive the given sink pin. ok is false for pins that are not sinks.
func TrueDriverOf(ref *netlist.Netlist, p layout.TaggedPin) (driverGate, pi int, ok bool) {
	switch p.Role {
	case layout.RoleSink:
		netID := ref.Gates[p.Ref.Gate].Fanin[p.Ref.Pin]
		n := ref.Nets[netID]
		if n.IsPI() {
			return -1, n.PI, true
		}
		return n.Driver, -1, true
	case layout.RolePO:
		n := ref.Nets[ref.PONets[p.PO]]
		if n.IsPI() {
			return -1, n.PI, true
		}
		return n.Driver, -1, true
	default:
		return -1, -1, false
	}
}

// fragDriver returns the source identity of a driver fragment.
func fragDriver(f *layout.Fragment) (gate, pi int, ok bool) {
	for _, p := range f.Pins {
		switch p.Role {
		case layout.RoleDriver:
			return p.Gate, -1, true
		case layout.RolePI:
			// PI pads record the PI index nowhere explicit; Gate is -1 and
			// the pad location identifies it. We use PO field? No: encode
			// via Ref.Pin? PI pads set Gate=-1, so identify by pointer
			// equality is impossible — instead the design tags the PI index
			// in Ref.Gate. See Design.TaggedNetPins.
			return -1, p.Ref.Gate, true
		}
	}
	return -1, -1, false
}

// CCRResult carries the correct-connection-rate outcome.
type CCRResult struct {
	Protected int     // sink fragments evaluated
	Correct   int     // assigned to the true driver
	CCR       float64 // Correct / Protected
}

// CCR scores an assignment against the original (reference) netlist.
// Only pure-sink fragments are scored; a missing or wrong assignment
// counts as incorrect.
func CCR(d *layout.Design, sv *layout.SplitView, ref *netlist.Netlist, a Assignment) CCRResult {
	return CCROver(d, sv, ref, a, nil)
}

// CCROver is CCR over the sink fragments holding one of only's gate
// sink pins, or over every sink fragment when only is nil: how the
// protected rows score the nets a defense protects. Its rule for a
// correct connection is CCR's.
func CCROver(d *layout.Design, sv *layout.SplitView, ref *netlist.Netlist, a Assignment, only map[netlist.PinRef]bool) CCRResult {
	var res CCRResult
	for _, fid := range sv.SinkFrags() {
		f := &sv.Frags[fid]
		sinks := f.SinkPins()
		if len(sinks) == 0 || only != nil && !holdsAny(sinks, only) {
			continue
		}
		res.Protected++
		got, ok := a[fid]
		if !ok || got < 0 || got >= len(sv.Frags) {
			continue
		}
		gGate, gPI, ok := fragDriver(&sv.Frags[got])
		if !ok {
			continue
		}
		// A fragment may hold several sink pins; it is correctly recovered
		// when the assigned driver matches the true driver of all of them
		// (they share one net in practice).
		all := true
		for _, sp := range sinks {
			tGate, tPI, ok := TrueDriverOf(ref, sp)
			if !ok || tGate != gGate || tPI != gPI {
				all = false
				break
			}
		}
		if all {
			res.Correct++
		}
	}
	if res.Protected > 0 {
		res.CCR = float64(res.Correct) / float64(res.Protected)
	}
	return res
}

// holdsAny reports whether one of the sink pins is a gate input in only.
func holdsAny(sinks []layout.TaggedPin, only map[netlist.PinRef]bool) bool {
	for _, sp := range sinks {
		if sp.Role == layout.RoleSink && only[sp.Ref] {
			return true
		}
	}
	return false
}

// RecoverNetlist builds the attacker's netlist: a clone of the FEOL-visible
// netlist with every pure-sink fragment's pins rewired to the assigned
// driver fragment's net. Unassigned sinks keep their (erroneous or
// original) binding. The result is what HD/OER are simulated on.
func RecoverNetlist(d *layout.Design, sv *layout.SplitView, a Assignment) *netlist.Netlist {
	rec := d.Netlist.Clone()
	for _, fid := range sv.SinkFrags() {
		got, ok := a[fid]
		if !ok || got < 0 || got >= len(sv.Frags) {
			continue
		}
		drv := &sv.Frags[got]
		gGate, gPI, ok := fragDriver(drv)
		if !ok {
			continue
		}
		var net int
		if gGate >= 0 {
			net = rec.Gates[gGate].Out
		} else {
			net = rec.PINets[gPI]
		}
		for _, sp := range sv.Frags[fid].SinkPins() {
			switch sp.Role {
			case layout.RoleSink:
				_ = rec.RewirePin(sp.Ref.Gate, sp.Ref.Pin, net)
			case layout.RolePO:
				_ = rec.RewirePO(sp.PO, net)
			}
		}
	}
	return rec
}

// TrueAssignment maps every pure-sink fragment to the driver fragment that
// the reference netlist says should feed it (used to validate attacks and
// to compute the match-in-list metric). Fragments whose true driver has no
// fragment in the view map to -1.
func TrueAssignment(d *layout.Design, sv *layout.SplitView, ref *netlist.Netlist) Assignment {
	// Index driver fragments by identity.
	byGate := map[int]int{}
	byPI := map[int]int{}
	for _, fid := range sv.DriverFrags() {
		g, pi, ok := fragDriver(&sv.Frags[fid])
		if !ok {
			continue
		}
		if g >= 0 {
			byGate[g] = fid
		} else {
			byPI[pi] = fid
		}
	}
	truth := Assignment{}
	for _, fid := range sv.SinkFrags() {
		sinks := sv.Frags[fid].SinkPins()
		if len(sinks) == 0 {
			continue
		}
		tGate, tPI, ok := TrueDriverOf(ref, sinks[0])
		if !ok {
			truth[fid] = -1
			continue
		}
		if tGate >= 0 {
			if df, ok := byGate[tGate]; ok {
				truth[fid] = df
			} else {
				truth[fid] = -1
			}
		} else if df, ok := byPI[tPI]; ok {
			truth[fid] = df
		} else {
			truth[fid] = -1
		}
	}
	return truth
}
