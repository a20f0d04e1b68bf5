package netlist

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// buildFullAdder constructs a 1-bit full adder used by many tests:
// sum = a^b^cin, cout = ab | cin(a^b).
func buildFullAdder() *Netlist {
	nl := New("fa")
	a := nl.AddPI("a")
	b := nl.AddPI("b")
	cin := nl.AddPI("cin")
	x1 := nl.AddGate("x1", Xor, a, b)
	x1out := nl.Gates[x1].Out
	x2 := nl.AddGate("x2", Xor, x1out, cin)
	a1 := nl.AddGate("a1", And, a, b)
	a2 := nl.AddGate("a2", And, x1out, cin)
	o1 := nl.AddGate("o1", Or, nl.Gates[a1].Out, nl.Gates[a2].Out)
	nl.AddPO("sum", nl.Gates[x2].Out)
	nl.AddPO("cout", nl.Gates[o1].Out)
	return nl
}

func TestFullAdderValidate(t *testing.T) {
	nl := buildFullAdder()
	if err := nl.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if nl.NumGates() != 5 || nl.NumPIs() != 3 || nl.NumPOs() != 2 {
		t.Fatalf("unexpected counts: %+v", nl.ComputeStats())
	}
}

func TestTopoOrder(t *testing.T) {
	nl := buildFullAdder()
	order, ok := nl.TopoOrder()
	if !ok {
		t.Fatal("acyclic netlist reported cyclic")
	}
	pos := make(map[int]int)
	for i, gid := range order {
		pos[gid] = i
	}
	for _, g := range nl.Gates {
		for _, netID := range g.Fanin {
			if d := nl.Nets[netID].Driver; d >= 0 {
				if pos[d] >= pos[g.ID] {
					t.Fatalf("gate %q appears before its driver %q", g.Name, nl.Gates[d].Name)
				}
			}
		}
	}
}

func TestCycleDetection(t *testing.T) {
	nl := New("cyc")
	a := nl.AddPI("a")
	g1 := nl.AddGate("g1", And, a, a)
	g2 := nl.AddGate("g2", Or, nl.Gates[g1].Out, a)
	// Close a loop: g1 reads g2's output on pin 1.
	if err := nl.RewirePin(g1, 1, nl.Gates[g2].Out); err != nil {
		t.Fatal(err)
	}
	if !nl.HasCombLoop() {
		t.Fatal("loop not detected")
	}
	if err := nl.Validate(); err != nil {
		t.Fatalf("structurally valid cyclic netlist failed Validate: %v", err)
	}
}

func TestDFFBreaksLoop(t *testing.T) {
	nl := New("seq")
	a := nl.AddPI("a")
	g1 := nl.AddGate("g1", And, a, a)
	ff := nl.AddGate("ff", DFF, nl.Gates[g1].Out)
	if err := nl.RewirePin(g1, 1, nl.Gates[ff].Out); err != nil {
		t.Fatal(err)
	}
	if nl.HasCombLoop() {
		t.Fatal("DFF-broken loop flagged as combinational")
	}
}

func TestPathExists(t *testing.T) {
	nl := buildFullAdder()
	x1 := nl.GateByName("x1").ID
	x2 := nl.GateByName("x2").ID
	o1 := nl.GateByName("o1").ID
	if !nl.PathExists(x1, x2) {
		t.Error("x1 -> x2 path missing")
	}
	if !nl.PathExists(x1, o1) {
		t.Error("x1 -> o1 path (via a2) missing")
	}
	if nl.PathExists(x2, x1) {
		t.Error("reverse path x2 -> x1 should not exist")
	}
	if nl.PathExists(o1, x1) {
		t.Error("o1 -> x1 should not exist")
	}
}

func TestRewirePin(t *testing.T) {
	nl := buildFullAdder()
	ref := nl.Clone()
	x2 := nl.GateByName("x2").ID
	aNet := nl.PINets[0]
	if err := nl.RewirePin(x2, 1, aNet); err != nil {
		t.Fatal(err)
	}
	if err := nl.Validate(); err != nil {
		t.Fatalf("Validate after rewire: %v", err)
	}
	diff := nl.DiffConnections(ref)
	if len(diff) != 1 || diff[0] != (PinRef{Gate: x2, Pin: 1}) {
		t.Fatalf("DiffConnections = %v", diff)
	}
	// Rewire back restores structure.
	if err := nl.RewirePin(x2, 1, ref.Gates[x2].Fanin[1]); err != nil {
		t.Fatal(err)
	}
	if !nl.SameStructure(ref) {
		t.Fatal("structure not restored")
	}
}

func TestSwapSinks(t *testing.T) {
	nl := buildFullAdder()
	ref := nl.Clone()
	x2 := nl.GateByName("x2").ID
	a2 := nl.GateByName("a2").ID
	pa := PinRef{Gate: x2, Pin: 1} // reads cin
	pb := PinRef{Gate: a2, Pin: 0} // reads x1
	if nl.SwapCreatesLoop(pa, pb) {
		t.Fatal("swap incorrectly predicted to create loop")
	}
	if err := nl.SwapSinks(pa, pb); err != nil {
		t.Fatal(err)
	}
	if err := nl.Validate(); err != nil {
		t.Fatalf("Validate after swap: %v", err)
	}
	if nl.Gates[x2].Fanin[1] != ref.Gates[a2].Fanin[0] {
		t.Fatal("swap did not move net")
	}
	if got := len(nl.DiffConnections(ref)); got != 2 {
		t.Fatalf("expected 2 changed pins, got %d", got)
	}
	// Swapping again restores.
	if err := nl.SwapSinks(pa, pb); err != nil {
		t.Fatal(err)
	}
	if !nl.SameStructure(ref) {
		t.Fatal("double swap did not restore")
	}
}

func TestSwapSameNetRejected(t *testing.T) {
	nl := buildFullAdder()
	x1 := nl.GateByName("x1").ID
	a1 := nl.GateByName("a1").ID
	// both pin 0s read net "a"
	if err := nl.SwapSinks(PinRef{x1, 0}, PinRef{a1, 0}); err == nil {
		t.Fatal("expected error for same-net swap")
	}
}

func TestSwapCreatesLoopDetection(t *testing.T) {
	nl := buildFullAdder()
	x1 := nl.GateByName("x1").ID
	x2 := nl.GateByName("x2").ID
	// Feeding x2's output into x1 while keeping x1 -> x2 forms a loop.
	// Swap x1 pin0 (reads a) with some pin reading x2's out: the PO "sum"
	// has no pin, so wire directly and verify predicate via a helper gate.
	b1 := nl.AddGate("b1", Buf, nl.Gates[x2].Out)
	_ = b1
	pa := PinRef{Gate: x1, Pin: 0}
	pb := PinRef{Gate: b1, Pin: 0}
	if !nl.SwapCreatesLoop(pa, pb) {
		t.Fatal("loop-creating swap not predicted")
	}
	// Perform it anyway and confirm an actual loop exists.
	if err := nl.SwapSinks(pa, pb); err != nil {
		t.Fatal(err)
	}
	if !nl.HasCombLoop() {
		t.Fatal("performed swap should have created a loop")
	}
}

func TestLevels(t *testing.T) {
	nl := buildFullAdder()
	lv, ok := nl.Levels()
	if !ok {
		t.Fatal("Levels failed on acyclic netlist")
	}
	x1 := nl.GateByName("x1").ID
	x2 := nl.GateByName("x2").ID
	o1 := nl.GateByName("o1").ID
	if lv[x1] != 0 || lv[x2] != 1 || lv[o1] != 2 {
		t.Fatalf("levels x1=%d x2=%d o1=%d", lv[x1], lv[x2], lv[o1])
	}
	if s := nl.ComputeStats(); s.Depth != 2 {
		t.Fatalf("depth = %d, want 2", s.Depth)
	}
}

func TestCloneIndependence(t *testing.T) {
	nl := buildFullAdder()
	c := nl.Clone()
	x2 := nl.GateByName("x2").ID
	if err := nl.RewirePin(x2, 0, nl.PINets[0]); err != nil {
		t.Fatal(err)
	}
	if c.Gates[x2].Fanin[0] == nl.Gates[x2].Fanin[0] {
		t.Fatal("clone shares fan-in storage with original")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("clone invalid after mutating original: %v", err)
	}
}

func TestParseGateType(t *testing.T) {
	cases := map[string]GateType{
		"NAND": Nand, "nand2": Nand, "NAND2_X1": Nand, "INV_X1": Inv,
		"BUF": Buf, "XOR2_X1": Xor, "DFF_X1": DFF, "mux2_x1": Mux,
	}
	for s, want := range cases {
		got, err := ParseGateType(s)
		if err != nil || got != want {
			t.Errorf("ParseGateType(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseGateType("FOO3"); err == nil {
		t.Error("expected error for unknown type")
	}
}

// randomDAG builds a random acyclic netlist for property tests.
func randomDAG(rng *rand.Rand, nPI, nGates int) *Netlist {
	nl := New("rand")
	for i := 0; i < nPI; i++ {
		nl.AddPI(gname("in", i))
	}
	types := []GateType{And, Or, Nand, Nor, Xor, Xnor, Inv, Buf}
	for i := 0; i < nGates; i++ {
		t := types[rng.Intn(len(types))]
		nin := t.MinInputs()
		if t.MaxInputs() > nin {
			nin += rng.Intn(t.MaxInputs() - nin + 1)
		}
		fanin := make([]int, nin)
		for p := range fanin {
			fanin[p] = rng.Intn(len(nl.Nets)) // only existing nets -> acyclic
		}
		nl.AddGate(gname("g", i), t, fanin...)
	}
	// Every net with no sinks becomes a PO so nothing dangles.
	for _, n := range nl.Nets {
		if n.FanoutCount() == 0 {
			nl.AddPO("po_"+n.Name, n.ID)
		}
	}
	return nl
}

func gname(prefix string, i int) string {
	return prefix + "_" + string(rune('a'+i%26)) + itoa(i)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [12]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

func TestPropertyRandomDAGsValidAndAcyclic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nl := randomDAG(rng, 3+rng.Intn(6), 10+rng.Intn(60))
		if nl.Validate() != nil {
			return false
		}
		if nl.HasCombLoop() {
			return false
		}
		order, ok := nl.TopoOrder()
		return ok && len(order) == nl.NumGates()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySwapPreservesValidity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nl := randomDAG(rng, 4, 40)
		ref := nl.Clone()
		swaps := 0
		for try := 0; try < 200 && swaps < 20; try++ {
			ga := rng.Intn(nl.NumGates())
			gb := rng.Intn(nl.NumGates())
			pa := PinRef{ga, rng.Intn(len(nl.Gates[ga].Fanin))}
			pb := PinRef{gb, rng.Intn(len(nl.Gates[gb].Fanin))}
			if pa == pb || nl.Gates[ga].Fanin[pa.Pin] == nl.Gates[gb].Fanin[pb.Pin] {
				continue
			}
			if nl.SwapCreatesLoop(pa, pb) {
				continue
			}
			if nl.SwapSinks(pa, pb) != nil {
				return false
			}
			swaps++
			if nl.Validate() != nil || nl.HasCombLoop() {
				return false
			}
		}
		// gate/net counts never change under swaps
		return nl.NumGates() == ref.NumGates() && nl.NumNets() == ref.NumNets()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySwapCreatesLoopIsExact(t *testing.T) {
	// Whenever SwapCreatesLoop says false, performing the swap must keep
	// the netlist acyclic; whenever it says true, performing the swap must
	// produce a cycle.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nl := randomDAG(rng, 4, 30)
		for try := 0; try < 50; try++ {
			ga := rng.Intn(nl.NumGates())
			gb := rng.Intn(nl.NumGates())
			pa := PinRef{ga, rng.Intn(len(nl.Gates[ga].Fanin))}
			pb := PinRef{gb, rng.Intn(len(nl.Gates[gb].Fanin))}
			if pa == pb || nl.Gates[ga].Fanin[pa.Pin] == nl.Gates[gb].Fanin[pb.Pin] {
				continue
			}
			pred := nl.SwapCreatesLoop(pa, pb)
			if nl.SwapSinks(pa, pb) != nil {
				return false
			}
			got := nl.HasCombLoop()
			// undo
			if nl.SwapSinks(pa, pb) != nil {
				return false
			}
			if pred != got {
				return false
			}
		}
		return !nl.HasCombLoop()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsFanout(t *testing.T) {
	nl := buildFullAdder()
	s := nl.ComputeStats()
	if s.MaxFanout != 2 { // a, b, x1 each feed 2 sinks
		t.Fatalf("MaxFanout = %d, want 2", s.MaxFanout)
	}
	if s.DFFs != 0 {
		t.Fatalf("DFFs = %d", s.DFFs)
	}
}

func TestTopoOrderDFFDoesNotReleaseSinksEarly(t *testing.T) {
	// Regression: a gate reading both a DFF output and a combinational
	// net must appear after its combinational driver, even though the
	// DFF (a source) is processed first. Construct: buf (high ID order
	// pressure) -> xnor, dff -> xnor.
	nl := New("seq-order")
	a := nl.AddPI("a")
	ff := nl.AddGate("ff", DFF, a)
	// xnor created BEFORE buf so the queue sees ff first and must not
	// release xnor until buf is processed.
	x := nl.AddGate("x", Xnor, nl.Gates[ff].Out, a) // placeholder pin 1
	b := nl.AddGate("b", Buf, a)
	if err := nl.RewirePin(x, 1, nl.Gates[b].Out); err != nil {
		t.Fatal(err)
	}
	nl.AddPO("y", nl.Gates[x].Out)
	order, ok := nl.TopoOrder()
	if !ok {
		t.Fatal("cyclic?")
	}
	pos := map[int]int{}
	for i, g := range order {
		pos[g] = i
	}
	if pos[x] < pos[b] {
		t.Fatalf("xnor at %d before its combinational driver buf at %d", pos[x], pos[b])
	}
}
