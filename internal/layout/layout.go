// Package layout composes a netlist, a placement, and a router into a full
// physical design, and implements the split-manufacturing view of it:
// splitting the stack after a chosen metal layer yields the FEOL fragments,
// the virtual pins (vpins — via locations where nets cross from the split
// layer into the BEOL), and the dangling-wire directions that the paper's
// attacks consume.
package layout

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"splitmfg/internal/cell"
	"splitmfg/internal/geom"
	"splitmfg/internal/netlist"
	"splitmfg/internal/place"
	"splitmfg/internal/route"
)

// PinRole tags what a routed terminal is, so the split view can identify
// driver-side and sink-side fragments.
type PinRole int

// Pin roles.
const (
	RoleDriver  PinRole = iota // output pin of a standard cell
	RoleSink                   // input pin of a standard cell
	RolePI                     // primary-input pad
	RolePO                     // primary-output pad
	RoleCorrIn                 // correction/lifting cell input (C or D), BEOL layer
	RoleCorrOut                // correction/lifting cell output (Y or Z), BEOL layer
)

// TaggedPin is a routing terminal plus design identity.
type TaggedPin struct {
	route.Pin
	Role PinRole
	Gate int            // gate ID for driver/sink roles; extra-cell ID for corr roles; -1 otherwise
	Ref  netlist.PinRef // sink pin reference for RoleSink
	PO   int            // PO index for RolePO, else -1
}

// Extra is an auxiliary cell that is not part of the logical netlist:
// correction cells and naive-lifting cells. They occupy no device-layer
// area and may overlap standard cells, but not each other.
type Extra struct {
	ID     int
	Master *cell.Master
	Loc    geom.Point // lower-left
}

// Center returns the extra cell's pin location.
func (e Extra) Center() geom.Point {
	return geom.Point{X: e.Loc.X + e.Master.WidthNM/2, Y: e.Loc.Y + cell.RowHeight/2}
}

// Design is a placed-and-routed design plus the metadata needed for split
// analysis.
type Design struct {
	Netlist   *netlist.Netlist
	Masters   []*cell.Master
	Placement *place.Placement
	Grid      route.Grid
	Router    *route.Router
	Extras    []Extra

	// Pins holds the tagged terminals of each routed entity, densely
	// indexed by route ID (netlist nets use their net ID; synthetic
	// entities get contiguous IDs above NumNets). A nil entry means the
	// ID is unrouted.
	Pins [][]TaggedPin
	// NetOf maps route ID -> netlist net ID, dense parallel to Pins (-1
	// for synthetic BEOL wires). Use NetIDOf to distinguish unrouted IDs.
	NetOf []int

	// pinArena backs the route.Pin scratch RouteEntities hands the router,
	// reused across calls.
	pinArena []route.Pin
}

// NewDesign builds an unrouted design over the placement's die. The gcell
// pitch adapts to the die so that small ISCAS-class dies still get a
// meaningful routing grid (~80 gcells across) while huge dies cap at the
// default pitch.
func NewDesign(nl *netlist.Netlist, masters []*cell.Master, p *place.Placement, ropt route.Options) *Design {
	gc := geom.Clamp(p.Die.W()/80/10*10, 560, route.DefaultGCellNM)
	grid := route.NewGrid(p.Die, gc, cell.NumLayers)
	d := &Design{
		Netlist:   nl,
		Masters:   masters,
		Placement: p,
		Grid:      grid,
		Router:    route.NewRouter(grid, ropt),
		Pins:      make([][]TaggedPin, nl.NumNets()),
		NetOf:     make([]int, nl.NumNets()),
	}
	for i := range d.NetOf {
		d.NetOf[i] = -1
	}
	return d
}

// setEntity records a routed entity's terminals, growing the dense tables
// for synthetic route IDs above the netlist block.
func (d *Design) setEntity(routeID, netID int, pins []TaggedPin) {
	for routeID >= len(d.Pins) {
		d.Pins = append(d.Pins, nil)
		d.NetOf = append(d.NetOf, -1)
	}
	d.Pins[routeID] = pins
	d.NetOf[routeID] = netID
}

// NetIDOf returns the netlist net a route ID realizes. ok is false for
// route IDs that have not been routed; netID is -1 for synthetic BEOL
// wires (stubs, restoration wiring).
func (d *Design) NetIDOf(routeID int) (netID int, ok bool) {
	if routeID < 0 || routeID >= len(d.Pins) || d.Pins[routeID] == nil {
		return -1, false
	}
	return d.NetOf[routeID], true
}

// TaggedRouteIDs returns every routed entity's route ID in ascending
// order — the deterministic iteration order analyses rely on.
func (d *Design) TaggedRouteIDs() []int {
	ids := make([]int, 0, len(d.Pins))
	for id := range d.Pins {
		if d.Pins[id] != nil {
			ids = append(ids, id)
		}
	}
	return ids
}

// TaggedNetPins builds the tagged terminal list of a netlist net from the
// placement (driver cell/PI pad plus all sinks/PO pads), with standard-cell
// pins on M1.
func (d *Design) TaggedNetPins(netID int) []TaggedPin {
	pins := make([]TaggedPin, 0, 1+d.Netlist.Nets[netID].FanoutCount())
	return d.appendNetPins(pins, netID)
}

// appendNetPins appends the net's tagged terminals to dst (the allocation-
// free core of TaggedNetPins, for callers batching many nets into one
// arena).
func (d *Design) appendNetPins(dst []TaggedPin, netID int) []TaggedPin {
	n := &d.Netlist.Nets[netID]
	if n.IsPI() {
		// PI pads carry the PI index in Ref.Gate so attacks/metrics can
		// identify which input a driver fragment represents.
		dst = append(dst, TaggedPin{
			Pin:  route.Pin{Pt: d.Placement.PIPads[n.PI], Layer: 1},
			Role: RolePI, Gate: -1, Ref: netlist.PinRef{Gate: n.PI, Pin: -1}, PO: -1,
		})
	} else {
		dst = append(dst, TaggedPin{
			Pin:  route.Pin{Pt: d.Placement.GateCenter(n.Driver), Layer: 1},
			Role: RoleDriver, Gate: n.Driver, PO: -1,
		})
	}
	for _, s := range n.Sinks {
		dst = append(dst, TaggedPin{
			Pin:  route.Pin{Pt: d.Placement.GateCenter(s.Gate), Layer: 1},
			Role: RoleSink, Gate: s.Gate, Ref: s, PO: -1,
		})
	}
	for _, po := range n.POs {
		dst = append(dst, TaggedPin{
			Pin:  route.Pin{Pt: d.Placement.POPads[po], Layer: 1},
			Role: RolePO, Gate: -1, PO: po,
		})
	}
	return dst
}

// EntityJob describes one routable entity for batched routing. RouteID
// must be unique per entity; plain netlist nets use the net ID.
type EntityJob struct {
	RouteID int
	NetID   int
	Pins    []TaggedPin
	Lift    int
}

// RouteEntities routes the jobs (nets or synthetic wires, each with its
// lift constraint) through the router's batched wave-parallel API
// (route.Router.RouteJobs), with results identical to routing each job in
// order with route.Router.RouteNet. On success every job's terminals are
// recorded; on failure a *route.JobError surfaces so callers can name the
// failing entity (its Index addresses the jobs slice).
func (d *Design) RouteEntities(jobs []EntityJob) error {
	// All jobs' router pins are carved from one reusable arena instead of
	// one slice per job. The router copies any pins it keeps (RoutedNet
	// owns its own Pins), so reusing the arena across calls is safe.
	total := 0
	for i := range jobs {
		total += len(jobs[i].Pins)
	}
	if cap(d.pinArena) < total {
		d.pinArena = make([]route.Pin, 0, total)
	}
	arena := d.pinArena[:0]
	rjobs := make([]route.Job, len(jobs))
	for i := range jobs {
		j := &jobs[i]
		off := len(arena)
		for k := range j.Pins {
			arena = append(arena, j.Pins[k].Pin)
		}
		rjobs[i] = route.Job{ID: j.RouteID, Pins: arena[off:len(arena):len(arena)], MinLayer: j.Lift}
	}
	d.pinArena = arena
	if err := d.Router.RouteJobs(rjobs); err != nil {
		return err
	}
	for i := range jobs {
		d.setEntity(jobs[i].RouteID, jobs[i].NetID, jobs[i].Pins)
	}
	return nil
}

// RouteAll routes every netlist net (no synthetic cells); lifts maps
// net IDs to minimum layers (missing = unconstrained). Nets are routed in
// increasing-HPWL order, short first, like a conventional global router;
// spatially disjoint nets route concurrently (route.Options.Parallelism)
// with byte-identical results. route.Options.Strategy selects flat or
// hierarchical corridor-confined search; HierStats reports what the
// coarse pass did.
func (d *Design) RouteAll(lifts map[int]int) error {
	type job struct {
		id   int
		hpwl int
	}
	jobs := make([]job, 0, d.Netlist.NumNets())
	for _, n := range d.Netlist.Nets {
		if n.FanoutCount() == 0 {
			continue
		}
		jobs = append(jobs, job{n.ID, geom.HPWL(d.Placement.NetPoints(d.Netlist, n.ID))})
	}
	// Short nets first, ties by net ID: the IDs are unique, so the order
	// is total and any sort gives the same one.
	slices.SortFunc(jobs, func(a, b job) int {
		return cmp.Or(cmp.Compare(a.hpwl, b.hpwl), cmp.Compare(a.id, b.id))
	})
	// Tag all nets' terminals into one arena: one allocation for the whole
	// design instead of one per net.
	total := 0
	for _, j := range jobs {
		total += 1 + d.Netlist.Nets[j.id].FanoutCount()
	}
	arena := make([]TaggedPin, 0, total)
	ejobs := make([]EntityJob, len(jobs))
	for i, j := range jobs {
		lift := DefaultLift(j.hpwl / d.Grid.GCell)
		if l, ok := lifts[j.id]; ok {
			lift = l
		}
		off := len(arena)
		arena = d.appendNetPins(arena, j.id)
		ejobs[i] = EntityJob{RouteID: j.id, NetID: j.id, Pins: arena[off:len(arena):len(arena)], Lift: lift}
	}
	if err := d.RouteEntities(ejobs); err != nil {
		var je *route.JobError
		if errors.As(err, &je) {
			return fmt.Errorf("layout: routing net %q: %v", d.Netlist.Nets[ejobs[je.Index].NetID].Name, je.Err)
		}
		return err
	}
	d.Router.NegotiateReroute()
	return nil
}

// HierStats reports the router's hierarchical tile-plan counters
// (corridor-planned nets, flat fallbacks, batch escapes, corridor-confined
// negotiation re-routes). All-zero under the flat strategy.
func (d *Design) HierStats() route.HierStats { return d.Router.Hier() }

// DefaultLift is the router's layer promotion for unconstrained nets.
// Layer assignment here is purely congestion-driven (the per-layer cost
// bias plus capacity pressure decide who climbs), matching the paper's
// Fig. 5 "Original" profile where the majority of wiring sits in the lower
// metal layers; only extremely long nets are promoted outright.
func DefaultLift(hpwlGCells int) int {
	if hpwlGCells >= 60 {
		return 4
	}
	return 1
}

// AddExtra registers an auxiliary (correction/lifting) cell and returns its
// ID. Placement legality among extras is the caller's concern (see
// LegalizeExtras).
func (d *Design) AddExtra(m *cell.Master, loc geom.Point) int {
	id := len(d.Extras)
	d.Extras = append(d.Extras, Extra{ID: id, Master: m, Loc: loc})
	return id
}

// LegalizeExtras shifts extra cells so that no two overlap (they may
// overlap standard cells by construction — their pins are in the BEOL).
// This mirrors the paper's custom legalization scripts. The algorithm is a
// greedy row-scan: extras are binned by row, sorted by x, and pushed right
// (wrapping to the row above when the row overflows).
func (d *Design) LegalizeExtras() {
	rows := map[int][]int{}
	rowH := cell.RowHeight
	for i := range d.Extras {
		y := d.Extras[i].Loc.Y / rowH * rowH
		y = geom.Clamp(y, d.Placement.Die.Lo.Y, d.Placement.Die.Hi.Y-rowH)
		d.Extras[i].Loc.Y = y
		rows[y] = append(rows[y], i)
	}
	for y := d.Placement.Die.Lo.Y; y < d.Placement.Die.Hi.Y; y += rowH {
		ids := rows[y]
		// sort by x
		for i := 1; i < len(ids); i++ {
			j := ids[i]
			k := i - 1
			for k >= 0 && d.Extras[ids[k]].Loc.X > d.Extras[j].Loc.X {
				ids[k+1] = ids[k]
				k--
			}
			ids[k+1] = j
		}
		cursor := d.Placement.Die.Lo.X
		for _, id := range ids {
			e := &d.Extras[id]
			if e.Loc.X < cursor {
				e.Loc.X = cursor
			}
			if e.Loc.X+e.Master.WidthNM > d.Placement.Die.Hi.X {
				// Wrap to next row (toward the top; clamped).
				ny := geom.Clamp(e.Loc.Y+rowH, d.Placement.Die.Lo.Y, d.Placement.Die.Hi.Y-rowH)
				e.Loc.Y = ny
				e.Loc.X = d.Placement.Die.Lo.X
				rows[ny] = append(rows[ny], id)
				continue
			}
			cursor = e.Loc.X + e.Master.WidthNM
		}
	}
}

// CheckExtrasLegal verifies no two extras overlap.
func (d *Design) CheckExtrasLegal() error {
	for i := range d.Extras {
		ri := geom.NewRect(d.Extras[i].Loc, geom.Point{
			X: d.Extras[i].Loc.X + d.Extras[i].Master.WidthNM,
			Y: d.Extras[i].Loc.Y + cell.RowHeight,
		})
		for j := i + 1; j < len(d.Extras); j++ {
			rj := geom.NewRect(d.Extras[j].Loc, geom.Point{
				X: d.Extras[j].Loc.X + d.Extras[j].Master.WidthNM,
				Y: d.Extras[j].Loc.Y + cell.RowHeight,
			})
			if ri.Overlaps(rj) {
				return fmt.Errorf("layout: extras %d and %d overlap", i, j)
			}
		}
	}
	return nil
}
