package netlist

import "fmt"

// RewirePin changes which net feeds gate pin (gate,pin). Both the gate
// fan-in record and the sink lists of the old and new nets are updated.
// This is the primitive used by the randomization defense and by the
// attacks when they reconstruct candidate netlists.
func (nl *Netlist) RewirePin(gate, pin, newNet int) error {
	if gate < 0 || gate >= len(nl.Gates) {
		return fmt.Errorf("netlist: RewirePin: gate %d out of range", gate)
	}
	g := &nl.Gates[gate]
	if pin < 0 || pin >= len(g.Fanin) {
		return fmt.Errorf("netlist: RewirePin: pin %d out of range for gate %q", pin, g.Name)
	}
	if newNet < 0 || newNet >= len(nl.Nets) {
		return fmt.Errorf("netlist: RewirePin: net %d out of range", newNet)
	}
	oldNet := g.Fanin[pin]
	if oldNet == newNet {
		return nil
	}
	old := &nl.Nets[oldNet]
	ref := PinRef{Gate: gate, Pin: pin}
	for i, s := range old.Sinks {
		if s == ref {
			old.Sinks = append(old.Sinks[:i], old.Sinks[i+1:]...)
			break
		}
	}
	g.Fanin[pin] = newNet
	nl.Nets[newNet].Sinks = append(nl.Nets[newNet].Sinks, ref)
	return nil
}

// RewirePO changes which net feeds primary output po.
func (nl *Netlist) RewirePO(po, newNet int) error {
	if po < 0 || po >= len(nl.PONets) {
		return fmt.Errorf("netlist: RewirePO: PO %d out of range", po)
	}
	if newNet < 0 || newNet >= len(nl.Nets) {
		return fmt.Errorf("netlist: RewirePO: net %d out of range", newNet)
	}
	oldNet := nl.PONets[po]
	if oldNet == newNet {
		return nil
	}
	old := &nl.Nets[oldNet]
	for i, p := range old.POs {
		if p == po {
			old.POs = append(old.POs[:i], old.POs[i+1:]...)
			break
		}
	}
	nl.PONets[po] = newNet
	nl.Nets[newNet].POs = append(nl.Nets[newNet].POs, po)
	return nil
}

// SwapSinks exchanges the driving nets of two gate input pins a and b:
// after the call, a's pin reads the net that fed b and vice versa. The
// paper's randomization stage is built from such swaps. An error is
// returned (and nothing changed) if the two pins read the same net.
func (nl *Netlist) SwapSinks(a, b PinRef) error {
	netA := nl.Gates[a.Gate].Fanin[a.Pin]
	netB := nl.Gates[b.Gate].Fanin[b.Pin]
	if netA == netB {
		return fmt.Errorf("netlist: SwapSinks: pins share net %q", nl.Nets[netA].Name)
	}
	if err := nl.RewirePin(a.Gate, a.Pin, netB); err != nil {
		return err
	}
	if err := nl.RewirePin(b.Gate, b.Pin, netA); err != nil {
		// restore the first rewire to keep the netlist consistent
		_ = nl.RewirePin(a.Gate, a.Pin, netA)
		return err
	}
	return nil
}

// SwapCreatesLoop reports whether SwapSinks(a, b) would introduce a
// combinational loop. Wiring net netB into pin a creates a loop exactly
// when a.Gate's output combinationally reaches netB's driver, and
// symmetrically for b.
func (nl *Netlist) SwapCreatesLoop(a, b PinRef) bool {
	netA := nl.Gates[a.Gate].Fanin[a.Pin]
	netB := nl.Gates[b.Gate].Fanin[b.Pin]
	if dB := nl.Nets[netB].Driver; dB >= 0 {
		if a.Gate == dB || nl.PathExists(a.Gate, dB) {
			return true
		}
	}
	if dA := nl.Nets[netA].Driver; dA >= 0 {
		if b.Gate == dA || nl.PathExists(b.Gate, dA) {
			return true
		}
	}
	return false
}

// DiffConnections compares the connectivity of nl against ref (same gate
// and net numbering assumed, e.g. ref is a Clone made before editing) and
// returns the pins whose feeding net changed.
func (nl *Netlist) DiffConnections(ref *Netlist) []PinRef {
	var changed []PinRef
	for gid, g := range nl.Gates {
		rg := ref.Gates[gid]
		for pin := range g.Fanin {
			if g.Fanin[pin] != rg.Fanin[pin] {
				changed = append(changed, PinRef{Gate: gid, Pin: pin})
			}
		}
	}
	for po := range nl.PONets {
		if nl.PONets[po] != ref.PONets[po] {
			changed = append(changed, PinRef{Gate: -1, Pin: po})
		}
	}
	return changed
}

// SameStructure reports whether two netlists with identical gate/net
// numbering have identical connectivity (gate types, fan-in nets, PO nets).
func (nl *Netlist) SameStructure(other *Netlist) bool {
	if len(nl.Gates) != len(other.Gates) || len(nl.Nets) != len(other.Nets) ||
		len(nl.PONets) != len(other.PONets) || len(nl.PINets) != len(other.PINets) {
		return false
	}
	for i, g := range nl.Gates {
		og := other.Gates[i]
		if g.Type != og.Type || len(g.Fanin) != len(og.Fanin) || g.Out != og.Out {
			return false
		}
		for p := range g.Fanin {
			if g.Fanin[p] != og.Fanin[p] {
				return false
			}
		}
	}
	for i := range nl.PONets {
		if nl.PONets[i] != other.PONets[i] {
			return false
		}
	}
	return true
}
