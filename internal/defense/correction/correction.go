// Package correction implements stages (ii) and (iii) of the paper's
// protection scheme: embedding custom correction cells into the placed
// erroneous design, lifting the randomized nets to a high metal layer
// (M6 or M8), and restoring the true functionality through BEOL re-routing
// between *pairs* of correction cells.
//
// Correction-cell mechanics (paper Sec. 4, Fig. 3): each protected sink S
// gets a correction cell cellS. The erroneous netlist's driver De of S
// routes to cellS's input pin C; cellS's output pin Z routes to S. During
// initial place-and-route the internal arc C->Z realizes the erroneous
// connection. Restoration disables C->Z and D->Y and adds BEOL wires
// between the pair of cells of each swap: for swap (A,B), Y(cellB)->D(cellA)
// carries A's true signal into Z(cellA)->A, and Y(cellA)->D(cellB) carries
// B's. The cells' pins live in the lift layer, so all restoration wiring is
// invisible to the FEOL fab.
//
// The same machinery without swaps is the paper's naive-lifting baseline.
package correction

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"splitmfg/internal/cell"
	"splitmfg/internal/geom"
	"splitmfg/internal/layout"
	"splitmfg/internal/netlist"
	"splitmfg/internal/place"
	"splitmfg/internal/route"

	"splitmfg/internal/defense/randomize"
)

// Options configures protected-layout construction.
type Options struct {
	LiftLayer   int // 6 for ISCAS-85, 8 for superblue (paper setup)
	UtilPercent int // placement utilization
	Seed        int64
	RouteOpt    route.Options

	// Observe, when non-nil, is called after each build stage ("place",
	// "lift", "route", "restore") with the stage's wall-clock duration.
	Observe func(stage string, elapsed time.Duration)
}

// observe reports a completed stage to the observer, if any.
func (o Options) observe(stage string, start time.Time) {
	if o.Observe != nil {
		o.Observe(stage, time.Since(start))
	}
}

func (o Options) withDefaults() Options {
	if o.LiftLayer == 0 {
		o.LiftLayer = 6
	}
	if o.UtilPercent == 0 {
		o.UtilPercent = 70
	}
	return o
}

// Protected bundles a protected design with its provenance.
type Protected struct {
	Design    *layout.Design
	Original  *netlist.Netlist
	Erroneous *netlist.Netlist
	Swaps     []randomize.Swap
	LiftLayer int

	// CellOf maps each protected sink pin to its correction cell (extra ID).
	CellOf map[netlist.PinRef]int
	// StubRoute maps each protected sink pin to the route ID of its
	// Z->sink stub.
	StubRoute map[netlist.PinRef]int
	// RestoreRoutes lists the BEOL restoration wires' route IDs.
	RestoreRoutes []int
}

// Route IDs for synthetic entities are assigned contiguously above the
// netlist nets: stubs occupy [NumNets, NumNets+numStubs) and restoration
// wires follow, so the layout's dense route-ID tables stay compact. Blocks
// keep the relative order nets < stubs < restores that sorted-route-ID
// consumers (timing, split views) rely on.
func (p *Protected) stubBase() int { return p.Design.Netlist.NumNets() }

// restoreBase is valid once routeErroneous assigned every stub (one per
// entry of CellOf).
func (p *Protected) restoreBase() int { return p.stubBase() + len(p.CellOf) }

// ProtectedSinks returns the set of sink pins covered by correction cells.
func (p *Protected) ProtectedSinks() map[netlist.PinRef]bool {
	m := make(map[netlist.PinRef]bool, len(p.CellOf))
	for pin := range p.CellOf {
		m[pin] = true
	}
	return m
}

// BuildOriginal places and routes a plain, unprotected design — the
// baseline every comparison starts from.
func BuildOriginal(nl *netlist.Netlist, lib *cell.Library, opt Options) (*layout.Design, error) {
	opt = opt.withDefaults()
	masters, err := lib.Bind(nl)
	if err != nil {
		return nil, err
	}
	start := time.Now() //smlint:wallclock phase timer feeding opt.observe progress reporting; never reaches results
	pl, err := place.Place(nl, masters, place.Options{UtilPercent: opt.UtilPercent, Seed: opt.Seed})
	if err != nil {
		return nil, err
	}
	opt.observe("place", start)
	d := layout.NewDesign(nl, masters, pl, opt.RouteOpt)
	start = time.Now() //smlint:wallclock phase timer feeding opt.observe progress reporting; never reaches results
	if err := d.RouteAll(nil); err != nil {
		return nil, err
	}
	opt.observe("route", start)
	return d, nil
}

// BuildProtected constructs the paper's protected layout from an original
// netlist and its randomization result: the erroneous netlist is placed,
// correction cells are embedded and legalized, erroneous nets are lifted,
// and true connectivity is restored in the BEOL.
func BuildProtected(original *netlist.Netlist, r *randomize.Result, lib *cell.Library, opt Options) (*Protected, error) {
	opt = opt.withDefaults()
	err := buildSanity(original, r)
	if err != nil {
		return nil, err
	}
	corr, err := lib.Correction(opt.LiftLayer)
	if err != nil {
		return nil, err
	}
	erroneous := r.Erroneous
	// Masters bind identically for original and erroneous: swaps preserve
	// per-net fanout counts.
	masters, err := lib.Bind(erroneous)
	if err != nil {
		return nil, err
	}
	// Place the erroneous netlist: misleading placement falls out of the
	// wrong connectivity. The swapped drivers/sinks are do-not-touch in the
	// paper's flow; our flow performs no logic restructuring, so the
	// constraint is trivially honored.
	start := time.Now() //smlint:wallclock phase timer feeding opt.observe progress reporting; never reaches results
	pl, err := place.Place(erroneous, masters, place.Options{UtilPercent: opt.UtilPercent, Seed: opt.Seed})
	if err != nil {
		return nil, err
	}
	opt.observe("place", start)
	d := layout.NewDesign(erroneous, masters, pl, opt.RouteOpt)

	p := &Protected{
		Design:    d,
		Original:  original,
		Erroneous: erroneous,
		Swaps:     r.Swaps,
		LiftLayer: opt.LiftLayer,
		CellOf:    map[netlist.PinRef]int{},
		StubRoute: map[netlist.PinRef]int{},
	}

	// Embed one correction cell per protected sink, near the midpoint of
	// its erroneous connection (the cell belongs to the erroneous net, so
	// the FEOL stays self-consistent and misleading).
	start = time.Now()                                 //smlint:wallclock phase timer feeding opt.observe progress reporting; never reaches results
	rng := rand.New(rand.NewSource(opt.Seed ^ 0x5eed)) //smlint:rawseed engine-scoped seed already derived upstream by the flow layer; the XOR is a fixed domain separator and re-mixing would shift every golden byte pin
	for _, pin := range SortedPins(r.Protected) {
		eNet := erroneous.Gates[pin.Gate].Fanin[pin.Pin]
		dpt := driverPoint(d, eNet)
		spt := pl.GateCenter(pin.Gate)
		mid := geom.Point{X: (dpt.X + spt.X) / 2, Y: (dpt.Y + spt.Y) / 2}
		// Jitter by up to one gcell so stacked midpoints spread before
		// legalization.
		mid.X += rng.Intn(d.Grid.GCell) - d.Grid.GCell/2
		mid.Y += rng.Intn(d.Grid.GCell) - d.Grid.GCell/2
		mid.X = geom.Clamp(mid.X, pl.Die.Lo.X, pl.Die.Hi.X-corr.WidthNM)
		mid.Y = geom.Clamp(mid.Y, pl.Die.Lo.Y, pl.Die.Hi.Y-cell.RowHeight)
		p.CellOf[pin] = d.AddExtra(corr, mid)
	}
	d.LegalizeExtras()
	if err := d.CheckExtrasLegal(); err != nil {
		return nil, fmt.Errorf("correction: %v", err)
	}
	opt.observe("lift", start)

	// Partition each erroneous net's sinks into protected and plain.
	start = time.Now() //smlint:wallclock phase timer feeding opt.observe progress reporting; never reaches results
	if err := p.routeErroneous(); err != nil {
		return nil, err
	}
	opt.observe("route", start)
	// BEOL restoration between pairs of correction cells.
	start = time.Now() //smlint:wallclock phase timer feeding opt.observe progress reporting; never reaches results
	if err := p.restore(); err != nil {
		return nil, err
	}
	opt.observe("restore", start)
	return p, nil
}

// SortedPins returns the set's pins in (gate, pin) order. Every consumer
// that turns a protected-pin set into a slice must use it so that RNG
// consumption and cell-ID assignment never depend on map iteration order.
func SortedPins(m map[netlist.PinRef]bool) []netlist.PinRef {
	pins := make([]netlist.PinRef, 0, len(m))
	for pin := range m {
		pins = append(pins, pin)
	}
	sort.Slice(pins, func(i, j int) bool {
		if pins[i].Gate != pins[j].Gate {
			return pins[i].Gate < pins[j].Gate
		}
		return pins[i].Pin < pins[j].Pin
	})
	return pins
}

func buildSanity(original *netlist.Netlist, r *randomize.Result) error {
	if r == nil || r.Erroneous == nil {
		return fmt.Errorf("correction: nil randomization result")
	}
	if original.NumGates() != r.Erroneous.NumGates() || original.NumNets() != r.Erroneous.NumNets() {
		return fmt.Errorf("correction: original and erroneous netlists differ in size")
	}
	return nil
}

func driverPoint(d *layout.Design, netID int) geom.Point {
	n := d.Netlist.Nets[netID]
	if n.IsPI() {
		return d.Placement.PIPads[n.PI]
	}
	return d.Placement.GateCenter(n.Driver)
}

// routeErroneous routes the full erroneous design: plain nets flat;
// protected nets as a lifted trunk (driver + plain sinks + the C pins of
// the protected sinks' correction cells) plus one lifted Z->sink stub per
// protected sink. The whole set goes through one batched RouteJobs call in
// one deterministic order (per net: trunk, then its stubs), so under the
// hierarchical strategy every entity is planned in one coarse pass.
func (p *Protected) routeErroneous() error {
	d := p.Design
	protected := p.ProtectedSinks()
	// what describes each job for error reporting; parallel to jobs.
	type what struct {
		stub bool
		name string
		pin  netlist.PinRef
	}
	var jobs []layout.EntityJob
	var whats []what
	stubBase := p.stubBase()
	stub := 0
	for _, n := range d.Netlist.Nets {
		if n.FanoutCount() == 0 {
			continue
		}
		var trunk []layout.TaggedPin
		var prot []netlist.PinRef
		all := d.TaggedNetPins(n.ID)
		trunk = append(trunk, all[0]) // driver / PI pad
		for _, tp := range all[1:] {
			if tp.Role == layout.RoleSink && protected[tp.Ref] {
				prot = append(prot, tp.Ref)
				continue
			}
			trunk = append(trunk, tp)
		}
		lift := layout.DefaultLift(geom.HPWL(d.Placement.NetPoints(d.Netlist, n.ID)) / d.Grid.GCell)
		if len(prot) > 0 {
			lift = p.LiftLayer
			for _, pin := range prot {
				cellID := p.CellOf[pin]
				trunk = append(trunk, layout.TaggedPin{
					Pin:  route.Pin{Pt: d.Extras[cellID].Center(), Layer: p.LiftLayer},
					Role: layout.RoleCorrIn, Gate: cellID, PO: -1,
				})
			}
		}
		jobs = append(jobs, layout.EntityJob{RouteID: n.ID, NetID: n.ID, Pins: trunk, Lift: lift})
		whats = append(whats, what{name: n.Name})
		// Stubs: Z(cell) -> sink, also lifted (their wiring above the split
		// layer, pin access below).
		for _, pin := range prot {
			cellID := p.CellOf[pin]
			sinkPt := d.Placement.GateCenter(pin.Gate)
			pins := []layout.TaggedPin{
				{Pin: route.Pin{Pt: d.Extras[cellID].Center(), Layer: p.LiftLayer},
					Role: layout.RoleCorrOut, Gate: cellID, PO: -1},
				{Pin: route.Pin{Pt: sinkPt, Layer: 1},
					Role: layout.RoleSink, Gate: pin.Gate, Ref: pin, PO: -1},
			}
			// The stub carries, after restoration, the ORIGINAL net feeding
			// this sink — tag it so restored-PPA analysis attributes its RC
			// to the right net.
			trueNet := randomize.TrueSourceNet(p.Original, pin)
			jobs = append(jobs, layout.EntityJob{RouteID: stubBase + stub, NetID: trueNet, Pins: pins, Lift: p.LiftLayer})
			whats = append(whats, what{stub: true, pin: pin})
			p.StubRoute[pin] = stubBase + stub
			stub++
		}
	}
	if err := d.RouteEntities(jobs); err != nil {
		var je *route.JobError
		if errors.As(err, &je) {
			if w := whats[je.Index]; w.stub {
				return fmt.Errorf("correction: stub for %v: %v", w.pin, je.Err)
			} else {
				return fmt.Errorf("correction: trunk of net %q: %v", w.name, je.Err)
			}
		}
		return err
	}
	return nil
}

// restore adds the BEOL wires between pairs of correction cells: for swap
// (A,B), Y(cellB)->D(cellA) and Y(cellA)->D(cellB). All wiring stays at or
// above the lift layer (both terminals are lift-layer pins).
func (p *Protected) restore() error {
	d := p.Design
	var jobs []layout.EntityJob
	var sinks []netlist.PinRef // per job, for error reporting
	id := p.restoreBase()
	for _, s := range p.Swaps {
		cellA, okA := p.CellOf[s.A]
		cellB, okB := p.CellOf[s.B]
		if !okA || !okB {
			return fmt.Errorf("correction: swap %+v missing correction cells", s)
		}
		wires := []struct {
			from, to int
			sink     netlist.PinRef
		}{
			{cellB, cellA, s.A}, // A's true signal arrives via cellB's C->Y
			{cellA, cellB, s.B},
		}
		for _, w := range wires {
			pins := []layout.TaggedPin{
				{Pin: route.Pin{Pt: d.Extras[w.from].Center(), Layer: p.LiftLayer},
					Role: layout.RoleCorrOut, Gate: w.from, PO: -1},
				{Pin: route.Pin{Pt: d.Extras[w.to].Center(), Layer: p.LiftLayer},
					Role: layout.RoleCorrIn, Gate: w.to, PO: -1},
			}
			trueNet := randomize.TrueSourceNet(p.Original, w.sink)
			jobs = append(jobs, layout.EntityJob{RouteID: id, NetID: trueNet, Pins: pins, Lift: p.LiftLayer})
			sinks = append(sinks, w.sink)
			p.RestoreRoutes = append(p.RestoreRoutes, id)
			id++
		}
	}
	if err := d.RouteEntities(jobs); err != nil {
		var je *route.JobError
		if errors.As(err, &je) {
			return fmt.Errorf("correction: restore wire for %v: %v", sinks[je.Index], je.Err)
		}
		return err
	}
	d.Router.NegotiateReroute()
	return nil
}

// RestoredNetlist reconstructs the netlist realized by the physical design
// after BEOL restoration, by tracing signal flow through the correction
// cells: each protected sink reads the signal arriving at its cell's D pin,
// which the restoration wiring connects to its true source. It must equal
// the original netlist — the package's central correctness check.
func (p *Protected) RestoredNetlist() (*netlist.Netlist, error) {
	rec := p.Erroneous.Clone()
	// Build D-pin sources: restore wires connect Y(from) -> D(to). Y(from)
	// carries the signal at cellFrom's C pin, which is the erroneous net
	// that routed into it (the trunk).
	cSource := map[int]int{} // extra cell ID -> erroneous net at its C pin
	for pin, cellID := range p.CellOf {
		cSource[cellID] = p.Erroneous.Gates[pin.Gate].Fanin[pin.Pin]
	}
	cellOfSink := map[int]netlist.PinRef{}
	for pin, cellID := range p.CellOf {
		cellOfSink[cellID] = pin
	}
	for _, rid := range p.RestoreRoutes {
		pins := p.Design.Pins[rid]
		if len(pins) != 2 {
			return nil, fmt.Errorf("correction: restore route %d malformed", rid)
		}
		from, to := pins[0].Gate, pins[1].Gate
		src, ok := cSource[from]
		if !ok {
			return nil, fmt.Errorf("correction: restore route %d from unknown cell %d", rid, from)
		}
		sink, ok := cellOfSink[to]
		if !ok {
			return nil, fmt.Errorf("correction: restore route %d to unknown cell %d", rid, to)
		}
		// After restoration the sink reads src (via D->Z).
		if err := rec.RewirePin(sink.Gate, sink.Pin, src); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// BuildNaiveLifted applies the paper's naive-lifting baseline: the same
// set of sinks is lifted through single-input lifting cells, but the
// netlist is untouched (no randomization, no misleading connections).
func BuildNaiveLifted(original *netlist.Netlist, sinks []netlist.PinRef, lib *cell.Library, opt Options) (*Protected, error) {
	opt = opt.withDefaults()
	liftMaster, err := lib.Lifting(opt.LiftLayer)
	if err != nil {
		return nil, err
	}
	masters, err := lib.Bind(original)
	if err != nil {
		return nil, err
	}
	start := time.Now() //smlint:wallclock phase timer feeding opt.observe progress reporting; never reaches results
	pl, err := place.Place(original, masters, place.Options{UtilPercent: opt.UtilPercent, Seed: opt.Seed})
	if err != nil {
		return nil, err
	}
	opt.observe("place", start)
	d := layout.NewDesign(original, masters, pl, opt.RouteOpt)
	p := &Protected{
		Design:    d,
		Original:  original,
		Erroneous: original,
		LiftLayer: opt.LiftLayer,
		CellOf:    map[netlist.PinRef]int{},
		StubRoute: map[netlist.PinRef]int{},
	}
	start = time.Now()                                 //smlint:wallclock phase timer feeding opt.observe progress reporting; never reaches results
	rng := rand.New(rand.NewSource(opt.Seed ^ 0x11f7)) //smlint:rawseed engine-scoped seed already derived upstream by the flow layer; the XOR is a fixed domain separator and re-mixing would shift every golden byte pin
	lifted := map[netlist.PinRef]bool{}
	for _, pin := range sinks {
		if lifted[pin] {
			continue
		}
		lifted[pin] = true
		netID := original.Gates[pin.Gate].Fanin[pin.Pin]
		dpt := driverPoint(d, netID)
		spt := pl.GateCenter(pin.Gate)
		mid := geom.Point{X: (dpt.X + spt.X) / 2, Y: (dpt.Y + spt.Y) / 2}
		mid.X += rng.Intn(d.Grid.GCell) - d.Grid.GCell/2
		mid.Y += rng.Intn(d.Grid.GCell) - d.Grid.GCell/2
		mid.X = geom.Clamp(mid.X, pl.Die.Lo.X, pl.Die.Hi.X-liftMaster.WidthNM)
		mid.Y = geom.Clamp(mid.Y, pl.Die.Lo.Y, pl.Die.Hi.Y-cell.RowHeight)
		p.CellOf[pin] = d.AddExtra(liftMaster, mid)
	}
	d.LegalizeExtras()
	if err := d.CheckExtrasLegal(); err != nil {
		return nil, err
	}
	opt.observe("lift", start)
	start = time.Now() //smlint:wallclock phase timer feeding opt.observe progress reporting; never reaches results
	if err := p.routeErroneous(); err != nil {
		return nil, err
	}
	opt.observe("route", start)
	// No restoration needed: the lifting cell passes its one input through.
	return p, nil
}
