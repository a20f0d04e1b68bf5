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
//
// Each sink keeps its k nearest drivers by a bounded k-slot selection
// ordered by cost and then driver index. Candidates that would close a
// loop in the FEOL-known netlist are dropped before the solve by a
// path search pruned by combinational level. The flow is solved by the
// primal-dual method: one Dijkstra sweep per distinct augmenting-path
// cost, each followed by a Dinic blocking flow over the zero-reduced-cost
// edges, rather than one sweep per sink. The commit passes that keep the
// assignment loop-free run in a total order (cost, sink, driver), so the
// result does not depend on how a sort breaks ties.
package proximity

import (
	"cmp"
	"context"
	"math"
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
// per Dijkstra sweep inside the flow solve; on cancellation the (partial)
// result so far is returned alongside ctx.Err(). A non-nil error is also
// returned when a driver's load capacity would overflow the solver's int32
// edge capacities (*CapacityError), or the candidate graph its int32 node
// and edge indices (*SizeError).
func Attack(ctx context.Context, d *layout.Design, sv *layout.SplitView, opt Options) (Result, error) {
	a, res, err := prepare(ctx, d, sv, opt)
	if a == nil || err != nil {
		return res, err
	}
	g, erefs, err := a.flowGraph()
	if err != nil {
		return res, err
	}
	if _, _, err := g.run(ctx, 0, g.n-1); err != nil {
		return res, err
	}

	// Extract the flow assignment, then enforce dynamic loop-freedom in
	// cost order: cheap (confident) assignments commit first; any
	// assignment that would close a loop against the committed prefix is
	// re-matched greedily to its next-best loop-free candidate. The order
	// is total — cost, then sink, then driver — so which of one sink's
	// equal-cost candidates the completion pass tries first does not
	// depend on the sort algorithm.
	slices.SortFunc(erefs, func(x, y edgeRef) int {
		if c := cmp.Compare(x.cost, y.cost); c != 0 {
			return c
		}
		if c := cmp.Compare(x.sink, y.sink); c != 0 {
			return c
		}
		return cmp.Compare(x.didx, y.didx)
	})
	assigned := make([]bool, len(sv.Frags))
	commit := func(sink, didx int) {
		assigned[sink] = true
		res.Assignment[sink] = a.dinfos[didx].fid
		if a.dinfos[didx].gate >= 0 {
			commitKnown(a.known, sv, sink, a.dinfos[didx].gate)
		}
	}
	feasible := func(sink, didx int) bool {
		if !opt.LoopAware || a.dinfos[didx].gate < 0 {
			return true
		}
		sg := a.sinkGate[sink]
		return sg < 0 || !wouldLoop(a.known, a.dinfos[didx].gate, sg)
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

// dinfo is one candidate driver fragment.
type dinfo struct {
	fid    int
	pt     geom.Point
	gate   int // -1 for PI
	capRem int // remaining sink slots (load constraint)
	dirs   []layout.Direction
}

// cand is one candidate edge: a sink fragment, an index into the driver
// list and the hint-weighted cost.
type cand struct {
	sink, didx int
	cost       float64
}

// attack is one attack's working state up to the flow solve. All of it,
// the static loop filter's search scratch included, belongs to a single
// call: suites run attacks concurrently.
type attack struct {
	sv       *layout.SplitView
	opt      Options
	sinks    []int
	dinfos   []dinfo
	known    *netlist.Netlist // FEOL-known netlist; the commit passes rewire it
	sinkGate []int            // per fragment: its first cell sink's gate, or -1
	levels   []int            // known's levels before any commit; nil if cyclic
	cands    []cand           // each sink's k nearest drivers, in sink order

	// staticLoop's epoch-stamped visited set and DFS stack.
	seen  []int32
	epoch int32
	stack []int
}

// prepare collects the candidate drivers, the FEOL-known netlist and the
// k nearest drivers of every sink. It returns a nil *attack when there is
// nothing to attack.
func prepare(ctx context.Context, d *layout.Design, sv *layout.SplitView, opt Options) (*attack, Result, error) {
	if opt.Candidates == 0 {
		opt.Candidates = 24
	}
	res := Result{Assignment: metrics.Assignment{}}
	drivers := CandidateDrivers(sv)
	sinks := sv.SinkFrags()
	if len(drivers) == 0 || len(sinks) == 0 {
		return nil, res, nil
	}
	a := &attack{sv: sv, opt: opt, sinks: sinks, dinfos: make([]dinfo, 0, len(drivers))}
	for _, fid := range drivers {
		f := &sv.Frags[fid]
		// The anchor is the fragment's dangling-wire position (vpin
		// centroid): the missing BEOL piece of a net is short, so the open
		// via locations of true partners sit close together — the sharpest
		// published proximity signal.
		// The no-limit sentinel is the solver's capacity ceiling, so the
		// load-unaware path stays in validated int32 range by construction.
		di := dinfo{fid: fid, pt: sv.FragCenter(d, fid), gate: -1, capRem: MaxEdgeCapacity,
			dirs: AppendFragDirs(nil, sv, fid)}
		for _, p := range f.Pins {
			if p.Role == layout.RoleDriver {
				di.gate = p.Gate
			}
		}
		if opt.LoadAware && di.gate >= 0 {
			di.capRem = LoadSlots(d, f, di.gate)
		}
		a.dinfos = append(a.dinfos, di)
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
	a.known = known
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
	a.sinkGate = sinkGate
	levels, _ := known.Levels()
	a.levels = levels
	maxLevel := 0
	for _, l := range levels {
		if l > maxLevel {
			maxLevel = l
		}
	}

	// Candidate edges: k nearest drivers per sink with hint-weighted costs.
	k := opt.Candidates
	a.cands = make([]cand, 0, len(sinks)*k)
	// Per-sink scratch, reused across the loop: the k-slot selection and
	// the tiny direction list.
	sel := make([]cand, 0, k)
	var dirsBuf []layout.Direction
	for _, sfid := range sinks {
		if err := ctx.Err(); err != nil {
			return nil, res, err
		}
		spt := sv.FragCenter(d, sfid)
		sdirs := AppendFragDirs(dirsBuf[:0], sv, sfid)
		dirsBuf = sdirs
		sel = sel[:0]
		for di := range a.dinfos {
			dd := &a.dinfos[di]
			cost := float64(spt.Manhattan(dd.pt)) + 1
			if opt.UseDirection {
				if !DirsCompatible(dd.dirs, dd.pt, spt) {
					cost *= opt.DirPenalty
				}
				if !DirsCompatible(sdirs, spt, dd.pt) {
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
			sel = selectNearest(sel, k, cand{sfid, di, cost})
		}
		a.cands = append(a.cands, sel...)
		res.Candidates += len(sel)
	}
	res.AvgCands = float64(res.Candidates) / float64(len(sinks))
	return a, res, nil
}

// selectNearest offers c to sel, the k cheapest candidates offered so far
// sorted by cost and then driver index, and returns the updated
// selection. Drivers are offered in increasing index order, so c ranks
// after every kept candidate of equal cost, and a strict cost compare
// gives the whole (cost, driver index) order.
//
//smlint:hot
func selectNearest(sel []cand, k int, c cand) []cand {
	if len(sel) < k {
		sel = append(sel, c)
	} else if c.cost >= sel[k-1].cost {
		return sel
	}
	i := len(sel) - 1
	for ; i > 0 && c.cost < sel[i-1].cost; i-- {
		sel[i] = sel[i-1]
	}
	sel[i] = c
	return sel
}

// edgeRef ties a candidate's forward edge in the flow graph to its sink,
// driver and cost.
type edgeRef struct {
	id   int
	sink int
	didx int
	cost float64
}

// flowGraph builds the joint assignment's min-cost max-flow graph: source
// -> driver (capacity = load slots), driver -> sink candidate edges
// (capacity 1, proximity cost), sink -> target (capacity 1). Node 0 is
// the source and the last node the target. Statically loop-infeasible
// candidates never enter the graph; the returned edgeRefs are the
// candidates that did.
func (a *attack) flowGraph() (*mcmf, []edgeRef, error) {
	sinkIdx := make([]int, len(a.sv.Frags))
	for i, sfid := range a.sinks {
		sinkIdx[sfid] = i
	}
	nd := len(a.dinfos)
	t := 1 + nd + len(a.sinks)
	g, err := newMCMF(t+1, nd+len(a.cands)+len(a.sinks))
	if err != nil {
		return nil, nil, err
	}
	for di := range a.dinfos {
		capSlots := a.dinfos[di].capRem
		if !a.opt.LoadAware {
			capSlots = len(a.sinks)
		}
		// Validated insertion: a fan-out count beyond the solver's int32
		// range fails typed here instead of wrapping into a negative
		// capacity the flow would silently treat as saturated.
		if _, err := g.addEdgeInt(0, 1+di, capSlots, 0); err != nil {
			return nil, nil, err
		}
	}
	erefs := make([]edgeRef, 0, len(a.cands))
	for _, c := range a.cands {
		dd := &a.dinfos[c.didx]
		if a.opt.LoopAware && dd.gate >= 0 {
			sg := a.sinkGate[c.sink]
			if sg >= 0 && a.staticLoop(dd.gate, sg) {
				continue // statically infeasible
			}
		}
		id := g.addEdge(1+c.didx, 1+nd+sinkIdx[c.sink], 1, int64(c.cost))
		erefs = append(erefs, edgeRef{id, c.sink, c.didx, c.cost})
	}
	for i := range a.sinks {
		g.addEdge(1+nd+i, t, 1, 0)
	}
	return g, erefs, nil
}

// staticLoop is wouldLoop on the known netlist before any commit, pruned
// by combinational level. A combinational gate sits at least one level
// above every combinational gate it reads, so a path from sink to driver
// through combinational gates climbs strictly: there is none when
// levels[sink] >= levels[driver], and the search never needs a gate at or
// above the driver's level. Levels puts DFFs at level 0, so a pair with a
// DFF end, or a cyclic netlist, which has no levels, falls back to
// PathExists.
//
//smlint:hot
func (a *attack) staticLoop(driverGate, sinkGate int) bool {
	nl, lv := a.known, a.levels
	if driverGate == sinkGate {
		return true
	}
	if lv == nil || nl.Gates[driverGate].Type.IsSequential() || nl.Gates[sinkGate].Type.IsSequential() {
		return nl.PathExists(sinkGate, driverGate)
	}
	top := lv[driverGate]
	if lv[sinkGate] >= top {
		return false
	}
	if len(a.seen) < len(nl.Gates) || a.epoch == math.MaxInt32 {
		a.seen = make([]int32, len(nl.Gates))
		a.epoch = 0
	}
	a.epoch++
	ep := a.epoch
	stack := append(a.stack[:0], sinkGate)
	a.seen[sinkGate] = ep
	found := false
	//smlint:bounded DFS with an epoch-stamped seen set: each gate is pushed at most once
	for len(stack) > 0 && !found {
		gid := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range nl.Nets[nl.Gates[gid].Out].Sinks {
			if s.Gate == driverGate {
				found = true
				break
			}
			// PathExists reaches a DFF but never searches past it.
			if lv[s.Gate] >= top || a.seen[s.Gate] == ep || nl.Gates[s.Gate].Type.IsSequential() {
				continue
			}
			a.seen[s.Gate] = ep
			stack = append(stack, s.Gate)
		}
	}
	a.stack = stack[:0]
	return found
}

// CandidateDrivers returns the driver fragments an FEOL attacker can pair
// sinks with: fragments that contain a source terminal and have an open
// via to the BEOL. Fragments without vpins are complete nets that need no
// reconnection.
func CandidateDrivers(sv *layout.SplitView) []int {
	var drivers []int
	for _, fid := range sv.DriverFrags() {
		if len(sv.Frags[fid].VPins) > 0 {
			drivers = append(drivers, fid)
		}
	}
	return drivers
}

// LoadSlots is the load-capacitance hint: how many more sinks the driver
// gate of fragment f can take. That is how many typical input pins its
// master drives on top of the sink terminals already in f, capped at a
// realistic fanout per drive strength, and at least one.
//
//smlint:hot
func LoadSlots(d *layout.Design, f *layout.Fragment, gate int) int {
	known := 0
	for _, p := range f.Pins {
		if p.Role == layout.RoleSink || p.Role == layout.RolePO {
			known++
		}
	}
	m := d.Masters[gate]
	return max(1, min(int(m.MaxCap/2.0)-known, 2+2*m.Drive))
}

// AppendFragDirs appends the dangling directions of a fragment's vpins to
// dst, which callers may reuse across fragments.
//
//smlint:hot
func AppendFragDirs(dst []layout.Direction, sv *layout.SplitView, fid int) []layout.Direction {
	for _, vid := range sv.Frags[fid].VPins {
		dst = append(dst, sv.VPins[vid].Dir)
	}
	return dst
}

// DirsCompatible is the dangling-wire hint: it reports whether any
// dangling direction at `from` points roughly toward `to` (or no
// direction information exists).
//
//smlint:hot
func DirsCompatible(dirs []layout.Direction, from, to geom.Point) bool {
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
