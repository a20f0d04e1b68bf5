// Package proximity implements a network-flow proximity attack in the
// style of Wang et al., "The cat and mouse in split manufacturing"
// (DAC 2016) — the attack the paper uses on ISCAS-85 layouts.
//
// Given the FEOL view of a split layout (layout.SplitView), the attacker
// must reconnect every pure-sink fragment to some driver fragment. The
// attack exploits five published hints:
//
//  1. physical proximity — gates to be connected are placed close, so the
//     nearest compatible driver is the likeliest partner;
//  2. avoidance of combinational loops — assignments that would close a
//     combinational cycle in the recovered netlist are excluded;
//  3. load-capacitance constraints — a driver only accepts as many sinks
//     as its drive strength supports;
//  4. direction of dangling wires — the open FEOL stub points toward its
//     BEOL partner;
//  5. timing constraints — pairings that would create paths far deeper
//     than the design's level budget are penalized.
//
// The joint assignment is solved as a min-cost max-flow over a bipartite
// candidate graph (k-nearest drivers per sink), with loop avoidance
// enforced greedily in flow order, exactly the engineering shape of the
// published attack.
package proximity

import (
	"cmp"
	"context"
	"slices"

	"splitmfg/internal/geom"
	"splitmfg/internal/layout"
	"splitmfg/internal/metrics"
	"splitmfg/internal/netlist"
)

// Options tunes the attack.
type Options struct {
	Candidates   int     // drivers considered per sink (k nearest); 0 = 24
	DirPenalty   float64 // cost multiplier when dangling directions disagree
	LoadAware    bool    // enforce drive-strength fanout capacities
	LoopAware    bool    // forbid combinational loops
	TimingAware  bool    // penalize level-budget violations
	UseDirection bool    // use dangling-wire direction hint
}

// DefaultOptions enables all five hints, as the paper assumes.
func DefaultOptions() Options {
	return Options{
		Candidates:   24,
		DirPenalty:   4.0,
		LoadAware:    true,
		LoopAware:    true,
		TimingAware:  true,
		UseDirection: true,
	}
}

// Result is the attack outcome.
type Result struct {
	Assignment metrics.Assignment
	Candidates int     // total candidate edges considered
	AvgCands   float64 // candidates per sink
}

// Attack recovers an assignment of sink fragments to driver fragments for
// the given split view. ref-free: only FEOL-visible information is used.
// The context is checked between per-sink candidate constructions and once
// per augmenting-path iteration inside the flow solve; on cancellation the
// (partial) result so far is returned alongside ctx.Err(). A non-nil error
// is also returned when a driver's load capacity would overflow the
// solver's int32 edge capacities (*CapacityError), or the candidate graph
// its int32 node and edge indices (*SizeError).
func Attack(ctx context.Context, d *layout.Design, sv *layout.SplitView, opt Options) (Result, error) {
	if opt.Candidates == 0 {
		opt.Candidates = 24
	}
	// Candidate drivers are fragments that both contain a source terminal
	// and have an open via to the BEOL; fragments without vpins are
	// complete nets that need no reconnection.
	var drivers []int
	for _, fid := range sv.DriverFrags() {
		if len(sv.Frags[fid].VPins) > 0 {
			drivers = append(drivers, fid)
		}
	}
	sinks := sv.SinkFrags()
	res := Result{Assignment: metrics.Assignment{}}
	if len(drivers) == 0 || len(sinks) == 0 {
		return res, nil
	}

	type dinfo struct {
		fid    int
		pt     geom.Point
		gate   int // -1 for PI
		capRem int // remaining sink slots (load constraint)
		dirs   []layout.Direction
	}
	dinfos := make([]dinfo, 0, len(drivers))
	for _, fid := range drivers {
		f := &sv.Frags[fid]
		// The anchor is the fragment's dangling-wire position (vpin
		// centroid): the missing BEOL piece of a net is short, so the open
		// via locations of true partners sit close together — the sharpest
		// published proximity signal.
		// The no-limit sentinel is the solver's capacity ceiling, so the
		// load-unaware path stays in validated int32 range by construction.
		di := dinfo{fid: fid, pt: sv.FragCenter(d, fid), gate: -1, capRem: MaxEdgeCapacity}
		for _, p := range f.Pins {
			if p.Role == layout.RoleDriver {
				di.gate = p.Gate
			}
		}
		if opt.LoadAware && di.gate >= 0 {
			m := d.Masters[di.gate]
			// Slots = how many typical input pins the driver can add on
			// top of the load it already drives within its own fragment.
			known := countSinkPins(f)
			slots := int(m.MaxCap/2.0) - known
			if slots > 2+2*m.Drive {
				slots = 2 + 2*m.Drive // realistic fanout ceiling per drive
			}
			if slots < 1 {
				slots = 1
			}
			di.capRem = slots
		}
		for _, vid := range f.VPins {
			di.dirs = append(di.dirs, sv.VPins[vid].Dir)
		}
		dinfos = append(dinfos, di)
	}

	// The FEOL-known netlist: connections inside driver fragments are
	// known; everything else is open. Loop checks run against this plus
	// the assignments made so far.
	known := d.Netlist.Clone()
	for _, fid := range sinks {
		for _, sp := range sv.Frags[fid].Pins {
			// Detach unknown sinks: point them at a fresh dummy PI so the
			// known netlist contains no assumption about them.
			if sp.Role == layout.RoleSink {
				dummy := known.AddPI("open_" + known.Gates[sp.Ref.Gate].Name)
				_ = known.RewirePin(sp.Ref.Gate, sp.Ref.Pin, dummy)
			}
		}
	}
	// Per-fragment first cell sink, precomputed once: the timing hint asks
	// for it per sink×driver pair and the loop filter per candidate edge —
	// allocating a pin slice (SinkPins) on each ask dominated the attack's
	// heap profile.
	sinkGate := make([]int, len(sv.Frags))
	for fid := range sinkGate {
		sinkGate[fid] = -1
	}
	for _, fid := range sinks {
		for _, p := range sv.Frags[fid].Pins {
			if p.Role == layout.RoleSink {
				sinkGate[fid] = p.Ref.Gate
				break
			}
		}
	}
	levels, _ := known.Levels()
	maxLevel := 0
	for _, l := range levels {
		if l > maxLevel {
			maxLevel = l
		}
	}

	// Candidate edges: k nearest drivers per sink with hint-weighted costs.
	type cand struct {
		sink, didx int
		cost       float64
	}
	all := make([]cand, 0, len(sinks)*opt.Candidates)
	type scored struct {
		didx int
		cost float64
	}
	// Per-sink scratch, reused across the loop: the scored list is
	// len(dinfos) every iteration and the direction list is tiny.
	scBuf := make([]scored, 0, len(dinfos))
	var dirsBuf []layout.Direction
	for _, sfid := range sinks {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		spt := sv.FragCenter(d, sfid)
		sdirs := appendFragDirs(dirsBuf[:0], sv, sfid)
		dirsBuf = sdirs
		sc := scBuf[:0]
		for di := range dinfos {
			dd := &dinfos[di]
			cost := float64(spt.Manhattan(dd.pt)) + 1
			if opt.UseDirection {
				if !dirsCompatible(dd.dirs, dd.pt, spt) {
					cost *= opt.DirPenalty
				}
				if !dirsCompatible(sdirs, spt, dd.pt) {
					cost *= opt.DirPenalty
				}
			}
			if opt.TimingAware && dd.gate >= 0 {
				// Deep-driver feeding deep-sink beyond the level budget is
				// suspicious under a fixed clock.
				sg := sinkGate[sfid]
				if sg >= 0 && levels != nil && levels[dd.gate]+1+(maxLevel-levels[sg]) > maxLevel+4 {
					cost *= 1.3
				}
			}
			sc = append(sc, scored{di, cost})
		}
		scBuf = sc
		slices.SortFunc(sc, func(a, b scored) int { return compareCost(a.cost, b.cost) })
		if len(sc) > opt.Candidates {
			sc = sc[:opt.Candidates]
		}
		for _, s := range sc {
			all = append(all, cand{sfid, s.didx, s.cost})
		}
		res.Candidates += len(sc)
	}
	res.AvgCands = float64(res.Candidates) / float64(len(sinks))

	// Joint assignment via min-cost max-flow: source -> driver (capacity =
	// load slots), driver -> sink candidate edges (capacity 1, proximity
	// cost), sink -> target (capacity 1). Statically loop-infeasible
	// candidates never enter the graph.
	sinkIdx := make([]int, len(sv.Frags))
	for i, sfid := range sinks {
		sinkIdx[sfid] = i
	}
	S := 0
	T := 1 + len(dinfos) + len(sinks)
	g, err := newMCMF(T+1, len(dinfos)+len(all)+len(sinks))
	if err != nil {
		return res, err
	}
	for di := range dinfos {
		capSlots := dinfos[di].capRem
		if !opt.LoadAware {
			capSlots = len(sinks)
		}
		// Validated insertion: a fan-out count beyond the solver's int32
		// range fails typed here instead of wrapping into a negative
		// capacity the flow would silently treat as saturated.
		if _, err := g.addEdgeInt(S, 1+di, capSlots, 0); err != nil {
			return res, err
		}
	}
	type edgeRef struct {
		id   int
		sink int
		didx int
		cost float64
	}
	erefs := make([]edgeRef, 0, len(all))
	for _, c := range all {
		dd := &dinfos[c.didx]
		if opt.LoopAware && dd.gate >= 0 {
			sg := sinkGate[c.sink]
			if sg >= 0 && wouldLoop(known, dd.gate, sg) {
				continue // statically infeasible
			}
		}
		id := g.addEdge(1+c.didx, 1+len(dinfos)+sinkIdx[c.sink], 1, int64(c.cost))
		erefs = append(erefs, edgeRef{id, c.sink, c.didx, c.cost})
	}
	for i := range sinks {
		g.addEdge(1+len(dinfos)+i, T, 1, 0)
	}
	if _, _, err := g.run(ctx, S, T); err != nil {
		return res, err
	}

	// Extract the flow assignment, then enforce dynamic loop-freedom in
	// cost order: cheap (confident) assignments commit first; any
	// assignment that would close a loop against the committed prefix is
	// re-matched greedily to its next-best loop-free candidate.
	slices.SortFunc(erefs, func(a, b edgeRef) int {
		if a.cost != b.cost {
			return compareCost(a.cost, b.cost)
		}
		return cmp.Compare(a.sink, b.sink)
	})
	assigned := make([]bool, len(sv.Frags))
	commit := func(sink, didx int) {
		assigned[sink] = true
		res.Assignment[sink] = dinfos[didx].fid
		if dinfos[didx].gate >= 0 {
			commitKnown(known, sv, sink, dinfos[didx].gate)
		}
	}
	feasible := func(sink, didx int) bool {
		if !opt.LoopAware || dinfos[didx].gate < 0 {
			return true
		}
		sg := sinkGate[sink]
		return sg < 0 || !wouldLoop(known, dinfos[didx].gate, sg)
	}
	for _, er := range erefs {
		if g.cap[er.id] != 0 || assigned[er.sink] {
			continue // not used by the flow, or sink already committed
		}
		if feasible(er.sink, er.didx) {
			commit(er.sink, er.didx)
		}
	}
	// Complete the assignment for any sink the flow or loop filter left
	// open, in candidate-cost order.
	for _, er := range erefs {
		if assigned[er.sink] {
			continue
		}
		if feasible(er.sink, er.didx) {
			commit(er.sink, er.didx)
		}
	}
	return res, nil
}

// compareCost orders candidate costs for slices.SortFunc: negative
// exactly when a < b, as the sort.Slice less functions it replaced
// returned true. Both sorts run the same pdqsort, so candidate order,
// ties included, is unchanged.
func compareCost(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// appendFragDirs appends the dangling directions of a fragment's vpins to
// dst, which callers reuse across fragments.
//
//smlint:hot
func appendFragDirs(dst []layout.Direction, sv *layout.SplitView, fid int) []layout.Direction {
	for _, vid := range sv.Frags[fid].VPins {
		dst = append(dst, sv.VPins[vid].Dir)
	}
	return dst
}

// countSinkPins counts the sink-side terminals in the fragment without
// materializing the SinkPins slice.
//
//smlint:hot
func countSinkPins(f *layout.Fragment) int {
	n := 0
	for _, p := range f.Pins {
		if p.Role == layout.RoleSink || p.Role == layout.RolePO {
			n++
		}
	}
	return n
}

// dirsCompatible reports whether any dangling direction at `from` points
// roughly toward `to` (or no direction information exists).
//
//smlint:hot
func dirsCompatible(dirs []layout.Direction, from, to geom.Point) bool {
	if len(dirs) == 0 {
		return true
	}
	any := false
	for _, d := range dirs {
		switch d {
		case layout.DirNone:
			return true
		case layout.DirEast:
			any = any || to.X >= from.X
		case layout.DirWest:
			any = any || to.X <= from.X
		case layout.DirNorth:
			any = any || to.Y >= from.Y
		case layout.DirSouth:
			any = any || to.Y <= from.Y
		}
	}
	return any
}

// wouldLoop reports whether driving sinkGate from driverGate closes a
// combinational cycle in the attacker's current netlist.
//
//smlint:hot
func wouldLoop(known *netlist.Netlist, driverGate, sinkGate int) bool {
	if driverGate == sinkGate {
		return true
	}
	return known.PathExists(sinkGate, driverGate)
}

// commitKnown applies an assignment to the attacker's working netlist so
// subsequent loop checks see it.
//
//smlint:hot
func commitKnown(known *netlist.Netlist, sv *layout.SplitView, sinkFrag, driverGate int) {
	net := known.Gates[driverGate].Out
	for _, sp := range sv.Frags[sinkFrag].Pins {
		if sp.Role == layout.RoleSink {
			_ = known.RewirePin(sp.Ref.Gate, sp.Ref.Pin, net)
		}
	}
}
