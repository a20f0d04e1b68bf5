// Package netlist models gate-level combinational/sequential netlists as
// used throughout the split-manufacturing flow: the defense randomizes
// netlist connectivity, the physical-design substrate places and routes it,
// and the attacks try to recover it from a split layout.
//
// The model is deliberately canonical: every gate drives exactly one net,
// every net has exactly one driver (a gate or a primary input) and any
// number of sinks (gate input pins and/or primary outputs). Sequential
// elements (DFFs) are supported as timing/logic cut points: for topological
// ordering and combinational simulation a DFF output acts as a pseudo
// primary input and its D pin as a pseudo primary output.
package netlist

import (
	"fmt"
	"strings"
)

// GateType enumerates the supported logic primitives. The set mirrors the
// combinational subset of the Nangate 45nm Open Cell Library that the paper
// builds on, plus DFF as a sequential cut point.
type GateType uint8

// Supported gate types.
const (
	Buf  GateType = iota // 1-input buffer
	Inv                  // 1-input inverter
	And                  // n-input AND
	Nand                 // n-input NAND
	Or                   // n-input OR
	Nor                  // n-input NOR
	Xor                  // 2-input XOR
	Xnor                 // 2-input XNOR
	Mux                  // 2:1 mux: pins are (sel, a, b); out = sel ? b : a
	DFF                  // D flip-flop: pin 0 is D; output is Q
	numGateTypes
)

var gateTypeNames = [...]string{
	Buf: "BUF", Inv: "INV", And: "AND", Nand: "NAND",
	Or: "OR", Nor: "NOR", Xor: "XOR", Xnor: "XNOR", Mux: "MUX", DFF: "DFF",
}

// String returns the canonical upper-case name of the gate type.
func (t GateType) String() string {
	if int(t) < len(gateTypeNames) {
		return gateTypeNames[t]
	}
	return fmt.Sprintf("GateType(%d)", uint8(t))
}

// ParseGateType converts a name such as "NAND" (case-insensitive, optionally
// with a drive-strength suffix such as "NAND2_X1") into a GateType.
func ParseGateType(s string) (GateType, error) {
	base := strings.ToUpper(s)
	if i := strings.IndexByte(base, '_'); i >= 0 {
		base = base[:i]
	}
	base = strings.TrimRight(base, "0123456789")
	for t, name := range gateTypeNames {
		if name == base {
			return GateType(t), nil
		}
	}
	return 0, fmt.Errorf("netlist: unknown gate type %q", s)
}

// IsSequential reports whether the gate type is a state element.
func (t GateType) IsSequential() bool { return t == DFF }

// MinInputs returns the minimum legal fan-in for the type.
func (t GateType) MinInputs() int {
	switch t {
	case Buf, Inv, DFF:
		return 1
	case Xor, Xnor:
		return 2
	case Mux:
		return 3
	default:
		return 2
	}
}

// MaxInputs returns the maximum legal fan-in for the type (library limit).
func (t GateType) MaxInputs() int {
	switch t {
	case Buf, Inv, DFF:
		return 1
	case Xor, Xnor:
		return 2
	case Mux:
		return 3
	default:
		return 4 // NAND4/NOR4/AND4/OR4 are the largest library cells
	}
}

// PinRef identifies one input pin of one gate.
type PinRef struct {
	Gate int // gate ID
	Pin  int // input pin index within the gate
}

// Net is a single-driver signal.
type Net struct {
	ID     int
	Name   string
	Driver int      // driving gate ID, or -1 when driven by a primary input
	PI     int      // primary-input index when Driver == -1, else -1
	Sinks  []PinRef // fanout gate input pins
	POs    []int    // primary-output indices fed by this net
}

// IsPI reports whether the net is driven by a primary input.
func (n *Net) IsPI() bool { return n.Driver < 0 }

// FanoutCount returns the total number of sinks (gate pins plus POs).
func (n *Net) FanoutCount() int { return len(n.Sinks) + len(n.POs) }

// Gate is a logic cell instance.
type Gate struct {
	ID    int
	Name  string
	Type  GateType
	Fanin []int // net IDs, one per input pin
	Out   int   // net ID driven by this gate
}

// Netlist is a canonical gate-level design.
//
// Gates and Nets are value slices indexed by ID: one contiguous block per
// kind instead of one heap object per gate/net. Compact additionally packs
// every Fanin/Sinks/POs slice into shared backing arrays, so a compacted
// netlist is ~7 allocations regardless of size. Per-element slices are
// carved with capacity == length: an append after compaction (RewirePin
// adding a sink, say) copies only that one element's slice out of the
// arena, leaving the rest shared.
type Netlist struct {
	Name    string
	Gates   []Gate
	Nets    []Net
	PINames []string
	PONames []string
	PINets  []int // net ID for each primary input
	PONets  []int // net ID for each primary output

	// faninArena is the shared backing AddGate carves Fanin slices from,
	// so construction costs O(log gates) fanin allocations rather than one
	// per gate. When a grow reallocates it, previously carved slices keep
	// the old backing (still correct, transiently duplicated); Compact
	// squeezes everything onto one exact-size array.
	faninArena []int

	// Epoch-stamped scratch for PathExists: pathSeen[g] == pathEpoch means
	// "visited this query". Reused across calls so the loop-safety oracle
	// (hammered once per candidate edge by defense randomization and the
	// proximity attack) allocates nothing. Makes PathExists unsafe for
	// concurrent use on one Netlist; all callers are sequential-per-netlist.
	pathSeen  []int32
	pathEpoch int32
	pathStack []int
}

// New returns an empty netlist with the given design name.
func New(name string) *Netlist {
	return &Netlist{Name: name}
}

// NumGates returns the gate count.
func (nl *Netlist) NumGates() int { return len(nl.Gates) }

// NumNets returns the net count.
func (nl *Netlist) NumNets() int { return len(nl.Nets) }

// NumPIs returns the primary-input count.
func (nl *Netlist) NumPIs() int { return len(nl.PINames) }

// NumPOs returns the primary-output count.
func (nl *Netlist) NumPOs() int { return len(nl.PONames) }

// AddPI creates a primary input and its net, returning the net ID.
func (nl *Netlist) AddPI(name string) int {
	pi := len(nl.PINames)
	nl.PINames = append(nl.PINames, name)
	id := len(nl.Nets)
	nl.Nets = append(nl.Nets, Net{ID: id, Name: name, Driver: -1, PI: pi})
	nl.PINets = append(nl.PINets, id)
	return id
}

// AddGate creates a gate of the given type reading the fanin nets and
// driving a freshly created output net named after the gate. It returns the
// gate ID.
func (nl *Netlist) AddGate(name string, t GateType, fanin ...int) int {
	gid := len(nl.Gates)
	out := len(nl.Nets)
	off := len(nl.faninArena)
	nl.faninArena = append(nl.faninArena, fanin...)
	end := len(nl.faninArena)
	nl.Gates = append(nl.Gates, Gate{
		ID: gid, Name: name, Type: t, Out: out,
		Fanin: nl.faninArena[off:end:end],
	})
	nl.Nets = append(nl.Nets, Net{ID: out, Name: name, Driver: gid, PI: -1})
	for pin, netID := range fanin {
		n := &nl.Nets[netID]
		n.Sinks = append(n.Sinks, PinRef{Gate: gid, Pin: pin})
	}
	return gid
}

// AddPO marks a net as feeding a named primary output and returns the PO
// index.
func (nl *Netlist) AddPO(name string, netID int) int {
	po := len(nl.PONames)
	nl.PONames = append(nl.PONames, name)
	nl.PONets = append(nl.PONets, netID)
	nl.Nets[netID].POs = append(nl.Nets[netID].POs, po)
	return po
}

// Validate checks all structural invariants: net/gate cross references,
// pin bounds, fan-in legality, and driver uniqueness. It returns the first
// violation found, or nil.
func (nl *Netlist) Validate() error {
	for i := range nl.Gates {
		g := &nl.Gates[i]
		if g.ID != i {
			return fmt.Errorf("netlist %s: gate %q has ID %d at index %d", nl.Name, g.Name, g.ID, i)
		}
		if len(g.Fanin) < g.Type.MinInputs() || len(g.Fanin) > g.Type.MaxInputs() {
			return fmt.Errorf("netlist %s: gate %q (%s) has illegal fan-in %d", nl.Name, g.Name, g.Type, len(g.Fanin))
		}
		if g.Out < 0 || g.Out >= len(nl.Nets) {
			return fmt.Errorf("netlist %s: gate %q output net %d out of range", nl.Name, g.Name, g.Out)
		}
		if nl.Nets[g.Out].Driver != g.ID {
			return fmt.Errorf("netlist %s: gate %q output net %q has driver %d", nl.Name, g.Name, nl.Nets[g.Out].Name, nl.Nets[g.Out].Driver)
		}
		for pin, netID := range g.Fanin {
			if netID < 0 || netID >= len(nl.Nets) {
				return fmt.Errorf("netlist %s: gate %q pin %d reads invalid net %d", nl.Name, g.Name, pin, netID)
			}
			if !nl.Nets[netID].hasSink(PinRef{g.ID, pin}) {
				return fmt.Errorf("netlist %s: net %q missing sink record for gate %q pin %d", nl.Name, nl.Nets[netID].Name, g.Name, pin)
			}
		}
	}
	for i := range nl.Nets {
		n := &nl.Nets[i]
		if n.ID != i {
			return fmt.Errorf("netlist %s: net %q has ID %d at index %d", nl.Name, n.Name, n.ID, i)
		}
		if n.Driver >= 0 {
			if n.Driver >= len(nl.Gates) {
				return fmt.Errorf("netlist %s: net %q driver %d out of range", nl.Name, n.Name, n.Driver)
			}
			if nl.Gates[n.Driver].Out != n.ID {
				return fmt.Errorf("netlist %s: net %q driver gate %q drives net %d", nl.Name, n.Name, nl.Gates[n.Driver].Name, nl.Gates[n.Driver].Out)
			}
			if n.PI >= 0 {
				return fmt.Errorf("netlist %s: net %q has both gate driver and PI", nl.Name, n.Name)
			}
		} else {
			if n.PI < 0 || n.PI >= len(nl.PINames) {
				return fmt.Errorf("netlist %s: net %q has no driver and invalid PI %d", nl.Name, n.Name, n.PI)
			}
			if nl.PINets[n.PI] != n.ID {
				return fmt.Errorf("netlist %s: PI %d maps to net %d, not %q", nl.Name, n.PI, nl.PINets[n.PI], n.Name)
			}
		}
		for _, s := range n.Sinks {
			if s.Gate < 0 || s.Gate >= len(nl.Gates) {
				return fmt.Errorf("netlist %s: net %q sink gate %d out of range", nl.Name, n.Name, s.Gate)
			}
			g := nl.Gates[s.Gate]
			if s.Pin < 0 || s.Pin >= len(g.Fanin) {
				return fmt.Errorf("netlist %s: net %q sink pin %d out of range for gate %q", nl.Name, n.Name, s.Pin, g.Name)
			}
			if g.Fanin[s.Pin] != n.ID {
				return fmt.Errorf("netlist %s: net %q sink record stale: gate %q pin %d reads net %d", nl.Name, n.Name, g.Name, s.Pin, g.Fanin[s.Pin])
			}
		}
		for _, po := range n.POs {
			if po < 0 || po >= len(nl.PONames) {
				return fmt.Errorf("netlist %s: net %q feeds invalid PO %d", nl.Name, n.Name, po)
			}
			if nl.PONets[po] != n.ID {
				return fmt.Errorf("netlist %s: PO %d maps to net %d, not %q", nl.Name, po, nl.PONets[po], n.Name)
			}
		}
	}
	for po, netID := range nl.PONets {
		if netID < 0 || netID >= len(nl.Nets) {
			return fmt.Errorf("netlist %s: PO %d maps to invalid net %d", nl.Name, po, netID)
		}
	}
	return nil
}

func (n *Net) hasSink(p PinRef) bool {
	for _, s := range n.Sinks {
		if s == p {
			return true
		}
	}
	return false
}

// Compact rewrites every Gate.Fanin, Net.Sinks, and Net.POs slice as a
// full-capacity window into one shared backing array per kind. Builders
// call it once construction is done: the per-element slices accumulated by
// AddGate/AddPO collapse into three arenas, after which Clone costs a
// handful of allocations and traversals walk contiguous memory. Later
// edits stay safe — appending to a compacted slice (capacity == length)
// copies that one element's slice out of the arena, and in-place removals
// shift within the element's own window.
func (nl *Netlist) Compact() {
	var nf, ns, np int
	for i := range nl.Gates {
		nf += len(nl.Gates[i].Fanin)
	}
	for i := range nl.Nets {
		ns += len(nl.Nets[i].Sinks)
		np += len(nl.Nets[i].POs)
	}
	fanin := make([]int, 0, nf)
	sinks := make([]PinRef, 0, ns)
	pos := make([]int, 0, np)
	for i := range nl.Gates {
		g := &nl.Gates[i]
		off := len(fanin)
		fanin = append(fanin, g.Fanin...)
		g.Fanin = fanin[off:len(fanin):len(fanin)]
	}
	for i := range nl.Nets {
		n := &nl.Nets[i]
		off := len(sinks)
		sinks = append(sinks, n.Sinks...)
		n.Sinks = sinks[off:len(sinks):len(sinks)]
		off = len(pos)
		pos = append(pos, n.POs...)
		n.POs = pos[off:len(pos):len(pos)]
	}
	// Retire the (possibly oversized) construction arena; the carved
	// slices above all have capacity == length, so a later AddGate grows a
	// fresh arena without disturbing them.
	nl.faninArena = fanin
}

// Clone returns a deep copy of the netlist. The copy is compacted: its
// Fanin/Sinks/POs live on fresh shared arenas, detached from the receiver.
func (nl *Netlist) Clone() *Netlist {
	c := &Netlist{
		Name:    nl.Name,
		Gates:   append([]Gate(nil), nl.Gates...),
		Nets:    append([]Net(nil), nl.Nets...),
		PINames: append([]string(nil), nl.PINames...),
		PONames: append([]string(nil), nl.PONames...),
		PINets:  append([]int(nil), nl.PINets...),
		PONets:  append([]int(nil), nl.PONets...),
	}
	// The value copies above still share Fanin/Sinks/POs backing with the
	// receiver; compacting rebuilds them on arenas owned by the clone.
	c.Compact()
	return c
}

// GateByName returns the gate with the given instance name, or nil. The
// pointer aliases the netlist's gate table and is invalidated by the next
// AddGate.
func (nl *Netlist) GateByName(name string) *Gate {
	for i := range nl.Gates {
		if nl.Gates[i].Name == name {
			return &nl.Gates[i]
		}
	}
	return nil
}

// Stats summarizes structural properties of a netlist.
type Stats struct {
	Gates      int
	Nets       int
	PIs        int
	POs        int
	DFFs       int
	Depth      int     // longest combinational path in gate levels
	AvgFanout  float64 // mean sinks per net
	MaxFanout  int
	TwoPinNets int
}

// ComputeStats derives Stats; Depth is 0 for cyclic netlists.
func (nl *Netlist) ComputeStats() Stats {
	s := Stats{Gates: len(nl.Gates), Nets: len(nl.Nets), PIs: len(nl.PINames), POs: len(nl.PONames)}
	totalFanout := 0
	for _, n := range nl.Nets {
		fo := n.FanoutCount()
		totalFanout += fo
		if fo > s.MaxFanout {
			s.MaxFanout = fo
		}
		if fo == 1 {
			s.TwoPinNets++
		}
	}
	if len(nl.Nets) > 0 {
		s.AvgFanout = float64(totalFanout) / float64(len(nl.Nets))
	}
	for _, g := range nl.Gates {
		if g.Type.IsSequential() {
			s.DFFs++
		}
	}
	if order, ok := nl.TopoOrder(); ok {
		level := make([]int, len(nl.Gates))
		for _, gid := range order {
			g := nl.Gates[gid]
			if g.Type.IsSequential() {
				level[gid] = 0
				continue
			}
			lv := 0
			for _, netID := range g.Fanin {
				d := nl.Nets[netID].Driver
				if d >= 0 && !nl.Gates[d].Type.IsSequential() && level[d]+1 > lv {
					lv = level[d] + 1
				}
			}
			level[gid] = lv
			if lv > s.Depth {
				s.Depth = lv
			}
		}
	}
	return s
}

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("gates=%d nets=%d PI=%d PO=%d dff=%d depth=%d avgFO=%.2f maxFO=%d",
		s.Gates, s.Nets, s.PIs, s.POs, s.DFFs, s.Depth, s.AvgFanout, s.MaxFanout)
}
