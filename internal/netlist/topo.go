package netlist

import "math"

// TopoOrder returns gate IDs in a combinational topological order: a gate
// appears after all gates whose outputs it reads, except across DFF
// boundaries (a DFF output is treated as a source). The second result is
// false when the combinational portion of the netlist contains a cycle.
func (nl *Netlist) TopoOrder() ([]int, bool) {
	indeg := make([]int, len(nl.Gates))
	for _, g := range nl.Gates {
		if g.Type.IsSequential() {
			continue // DFF is a source for ordering purposes
		}
		for _, netID := range g.Fanin {
			d := nl.Nets[netID].Driver
			if d >= 0 && !nl.Gates[d].Type.IsSequential() {
				indeg[g.ID]++
			}
		}
	}
	queue := make([]int, 0, len(nl.Gates))
	for _, g := range nl.Gates {
		if g.Type.IsSequential() || indeg[g.ID] == 0 {
			queue = append(queue, g.ID)
		}
	}
	order := make([]int, 0, len(nl.Gates))
	for len(queue) > 0 {
		gid := queue[0]
		queue = queue[1:]
		order = append(order, gid)
		if nl.Gates[gid].Type.IsSequential() {
			// DFF edges were never counted in the indegrees (DFF outputs
			// are sources), so processing a DFF must not decrement its
			// sinks — doing so would release gates before their real
			// combinational drivers.
			continue
		}
		out := nl.Gates[gid].Out
		for _, s := range nl.Nets[out].Sinks {
			sg := nl.Gates[s.Gate]
			if sg.Type.IsSequential() {
				continue
			}
			indeg[sg.ID]--
			if indeg[sg.ID] == 0 {
				queue = append(queue, sg.ID)
			}
		}
	}
	return order, len(order) == len(nl.Gates)
}

// HasCombLoop reports whether the netlist contains a combinational cycle.
func (nl *Netlist) HasCombLoop() bool {
	_, ok := nl.TopoOrder()
	return !ok
}

// PathExists reports whether a combinational path exists from the output of
// gate `from` to (any input of) gate `to`. It is the loop-safety oracle used
// by the randomization stage: connecting the output of `to` into the fan-in
// cone of `from` is only safe when PathExists(from, to) is false... more
// precisely, wiring driver D to a sink pin of gate S creates a loop exactly
// when S's output combinationally reaches D.
func (nl *Netlist) PathExists(from, to int) bool {
	if from == to {
		return true
	}
	// Epoch-stamped visited scratch: zero-fill only when the gate count
	// outgrew the buffer or the epoch counter wrapped, not per query.
	if len(nl.pathSeen) < len(nl.Gates) || nl.pathEpoch == math.MaxInt32 {
		nl.pathSeen = make([]int32, len(nl.Gates))
		nl.pathEpoch = 0
	}
	nl.pathEpoch++
	ep := nl.pathEpoch
	seen := nl.pathSeen
	stack := append(nl.pathStack[:0], from)
	seen[from] = ep
	first := true
	for len(stack) > 0 {
		gid := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g := nl.Gates[gid]
		if g.Type.IsSequential() && !first {
			continue
		}
		first = false
		for _, s := range nl.Nets[g.Out].Sinks {
			if s.Gate == to {
				nl.pathStack = stack[:0]
				return true
			}
			if seen[s.Gate] != ep {
				seen[s.Gate] = ep
				stack = append(stack, s.Gate)
			}
		}
	}
	nl.pathStack = stack[:0]
	return false
}

// Levels assigns each gate its combinational level (longest distance in
// gates from any PI/DFF output). Sequential gates get level 0. The second
// result is false for cyclic netlists.
func (nl *Netlist) Levels() ([]int, bool) {
	order, ok := nl.TopoOrder()
	if !ok {
		return nil, false
	}
	level := make([]int, len(nl.Gates))
	for _, gid := range order {
		g := nl.Gates[gid]
		if g.Type.IsSequential() {
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
	}
	return level, true
}

// FanoutGates returns the IDs of gates directly reading the output of g.
func (nl *Netlist) FanoutGates(g int) []int {
	out := nl.Gates[g].Out
	ids := make([]int, 0, len(nl.Nets[out].Sinks))
	for _, s := range nl.Nets[out].Sinks {
		ids = append(ids, s.Gate)
	}
	return ids
}

// FaninGates returns the IDs of gates directly driving inputs of g
// (primary-input drivers are skipped).
func (nl *Netlist) FaninGates(g int) []int {
	var ids []int
	for _, netID := range nl.Gates[g].Fanin {
		if d := nl.Nets[netID].Driver; d >= 0 {
			ids = append(ids, d)
		}
	}
	return ids
}
