package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"splitmfg/internal/bench"
	"splitmfg/internal/netlist"
)

func buildFullAdder() *netlist.Netlist {
	nl := netlist.New("fa")
	a := nl.AddPI("a")
	b := nl.AddPI("b")
	cin := nl.AddPI("cin")
	x1 := nl.AddGate("x1", netlist.Xor, a, b)
	x1out := nl.Gates[x1].Out
	x2 := nl.AddGate("x2", netlist.Xor, x1out, cin)
	a1 := nl.AddGate("a1", netlist.And, a, b)
	a2 := nl.AddGate("a2", netlist.And, x1out, cin)
	o1 := nl.AddGate("o1", netlist.Or, nl.Gates[a1].Out, nl.Gates[a2].Out)
	nl.AddPO("sum", nl.Gates[x2].Out)
	nl.AddPO("cout", nl.Gates[o1].Out)
	return nl
}

func TestFullAdderTruthTable(t *testing.T) {
	nl := buildFullAdder()
	s, err := New(nl)
	if err != nil {
		t.Fatal(err)
	}
	pats, words, err := ExhaustivePatterns(3)
	if err != nil {
		t.Fatal(err)
	}
	val, err := s.Eval(pats, words)
	if err != nil {
		t.Fatal(err)
	}
	po := s.POWords(val)
	for p := 0; p < 8; p++ {
		a := pats[0][0] >> uint(p) & 1
		b := pats[1][0] >> uint(p) & 1
		c := pats[2][0] >> uint(p) & 1
		wantSum := a ^ b ^ c
		wantCout := (a & b) | (c & (a ^ b))
		gotSum := po[0][0] >> uint(p) & 1
		gotCout := po[1][0] >> uint(p) & 1
		if gotSum != wantSum || gotCout != wantCout {
			t.Fatalf("pattern %d: sum=%d want %d, cout=%d want %d", p, gotSum, wantSum, gotCout, wantCout)
		}
	}
}

func TestAllGateTypes(t *testing.T) {
	// For every 2-input type, check against Go's boolean ops exhaustively.
	type fn func(a, b uint64) uint64
	cases := []struct {
		t netlist.GateType
		f fn
	}{
		{netlist.And, func(a, b uint64) uint64 { return a & b }},
		{netlist.Nand, func(a, b uint64) uint64 { return ^(a & b) }},
		{netlist.Or, func(a, b uint64) uint64 { return a | b }},
		{netlist.Nor, func(a, b uint64) uint64 { return ^(a | b) }},
		{netlist.Xor, func(a, b uint64) uint64 { return a ^ b }},
		{netlist.Xnor, func(a, b uint64) uint64 { return ^(a ^ b) }},
	}
	rng := rand.New(rand.NewSource(1))
	for _, c := range cases {
		nl := netlist.New("g")
		a := nl.AddPI("a")
		b := nl.AddPI("b")
		g := nl.AddGate("g0", c.t, a, b)
		nl.AddPO("y", nl.Gates[g].Out)
		s, err := New(nl)
		if err != nil {
			t.Fatal(err)
		}
		pats := RandomPatterns(rng, 2, 4)
		val, err := s.Eval(pats, 4)
		if err != nil {
			t.Fatal(err)
		}
		po := s.POWords(val)
		for w := 0; w < 4; w++ {
			if got, want := po[0][w], c.f(pats[0][w], pats[1][w]); got != want {
				t.Fatalf("%v word %d: got %x want %x", c.t, w, got, want)
			}
		}
	}
}

func TestInvBufMux(t *testing.T) {
	nl := netlist.New("m")
	a := nl.AddPI("a")
	b := nl.AddPI("b")
	sel := nl.AddPI("sel")
	inv := nl.AddGate("inv", netlist.Inv, a)
	buf := nl.AddGate("buf", netlist.Buf, b)
	mux := nl.AddGate("mux", netlist.Mux, sel, nl.Gates[inv].Out, nl.Gates[buf].Out)
	nl.AddPO("y", nl.Gates[mux].Out)
	s, _ := New(nl)
	rng := rand.New(rand.NewSource(7))
	pats := RandomPatterns(rng, 3, 2)
	val, err := s.Eval(pats, 2)
	if err != nil {
		t.Fatal(err)
	}
	po := s.POWords(val)
	for w := 0; w < 2; w++ {
		want := (^pats[0][w] &^ pats[2][w]) | (pats[1][w] & pats[2][w])
		if po[0][w] != want {
			t.Fatalf("mux word %d mismatch", w)
		}
	}
}

func TestDFFPseudoInput(t *testing.T) {
	nl := netlist.New("seq")
	a := nl.AddPI("a")
	ff := nl.AddGate("ff", netlist.DFF, a)
	g := nl.AddGate("g", netlist.Xor, a, nl.Gates[ff].Out)
	nl.AddPO("y", nl.Gates[g].Out)
	s, err := New(nl)
	if err != nil {
		t.Fatal(err)
	}
	pats := [][]uint64{{0xF0F0}}
	// Default: DFF out = 0 -> y = a.
	val, err := s.Eval(pats, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.POWords(val)[0][0]; got != 0xF0F0 {
		t.Fatalf("y = %x, want F0F0", got)
	}
	// With state: y = a ^ state.
	s.SetSeqState(ff, []uint64{0xFF00})
	val, err = s.Eval(pats, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.POWords(val)[0][0]; got != 0xF0F0^0xFF00 {
		t.Fatalf("y = %x, want %x", got, uint64(0xF0F0^0xFF00))
	}
}

func TestCompareSelfIsZero(t *testing.T) {
	nl := buildFullAdder()
	rng := rand.New(rand.NewSource(3))
	pats := RandomPatterns(rng, 3, 16)
	res, err := Compare(nl, nl.Clone(), pats, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.OER != 0 || res.HD != 0 || res.DiffBits != 0 {
		t.Fatalf("self-compare nonzero: %+v", res)
	}
}

func TestCompareDetectsSwap(t *testing.T) {
	nl := buildFullAdder()
	mod := nl.Clone()
	// Swap the sum XOR's cin input with a1's b input: changes function.
	x2 := mod.GateByName("x2").ID
	a1 := mod.GateByName("a1").ID
	if err := mod.SwapSinks(netlist.PinRef{Gate: x2, Pin: 1}, netlist.PinRef{Gate: a1, Pin: 1}); err != nil {
		t.Fatal(err)
	}
	pats, words, _ := ExhaustivePatterns(3)
	res, err := Compare(nl, mod, pats, words)
	if err != nil {
		t.Fatal(err)
	}
	if res.DiffBits == 0 {
		t.Fatal("swap not detected functionally")
	}
	if res.OER <= 0 || res.HD <= 0 {
		t.Fatalf("OER=%v HD=%v", res.OER, res.HD)
	}
}

func TestEquivalentExhaustive(t *testing.T) {
	nl := buildFullAdder()
	rng := rand.New(rand.NewSource(5))
	eq, err := Equivalent(nl, nl.Clone(), rng, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("identical netlists not equivalent")
	}
	// De Morgan: NAND(a,b) == OR(INV a, INV b): different structure, same function.
	n1 := netlist.New("nand")
	a := n1.AddPI("a")
	b := n1.AddPI("b")
	g := n1.AddGate("g", netlist.Nand, a, b)
	n1.AddPO("y", n1.Gates[g].Out)

	n2 := netlist.New("demorgan")
	a2 := n2.AddPI("a")
	b2 := n2.AddPI("b")
	i1 := n2.AddGate("i1", netlist.Inv, a2)
	i2 := n2.AddGate("i2", netlist.Inv, b2)
	o := n2.AddGate("o", netlist.Or, n2.Gates[i1].Out, n2.Gates[i2].Out)
	n2.AddPO("y", n2.Gates[o].Out)

	eq, err = Equivalent(n1, n2, rng, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("De Morgan pair not equivalent")
	}
}

func TestCombLoopRejected(t *testing.T) {
	nl := netlist.New("cyc")
	a := nl.AddPI("a")
	g1 := nl.AddGate("g1", netlist.And, a, a)
	g2 := nl.AddGate("g2", netlist.Or, nl.Gates[g1].Out, a)
	_ = nl.RewirePin(g1, 1, nl.Gates[g2].Out)
	if _, err := New(nl); err != ErrCombLoop {
		t.Fatalf("got %v, want ErrCombLoop", err)
	}
}

func TestExhaustivePatternsProperties(t *testing.T) {
	pats, words, err := ExhaustivePatterns(5)
	if err != nil {
		t.Fatal(err)
	}
	if words != 1 {
		t.Fatalf("words = %d", words)
	}
	seen := make(map[uint32]bool)
	for p := 0; p < 32; p++ {
		var v uint32
		for i := 0; i < 5; i++ {
			if pats[i][0]>>uint(p)&1 == 1 {
				v |= 1 << uint(i)
			}
		}
		seen[v] = true
	}
	if len(seen) != 32 {
		t.Fatalf("only %d distinct patterns", len(seen))
	}
	if _, _, err := ExhaustivePatterns(21); err == nil {
		t.Fatal("expected error above 20 inputs")
	}
}

func TestPropertyXorChainParity(t *testing.T) {
	// A chain of XORs computes parity regardless of chain shape.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		nl := netlist.New("parity")
		nets := make([]int, n)
		for i := range nets {
			nets[i] = nl.AddPI("i" + string(rune('a'+i)))
		}
		acc := nets[0]
		for i := 1; i < n; i++ {
			g := nl.AddGate("x"+string(rune('a'+i)), netlist.Xor, acc, nets[i])
			acc = nl.Gates[g].Out
		}
		nl.AddPO("p", acc)
		s, err := New(nl)
		if err != nil {
			return false
		}
		pats := RandomPatterns(rng, n, 4)
		val, err := s.Eval(pats, 4)
		if err != nil {
			return false
		}
		po := s.POWords(val)
		for w := 0; w < 4; w++ {
			var want uint64
			for i := 0; i < n; i++ {
				want ^= pats[i][w]
			}
			if po[0][w] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyOERBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nl := buildFullAdder()
		mod := nl.Clone()
		// random valid swap
		x2 := mod.GateByName("x2").ID
		o1 := mod.GateByName("o1").ID
		pa := netlist.PinRef{Gate: x2, Pin: 0}
		pb := netlist.PinRef{Gate: o1, Pin: 1}
		if !mod.SwapCreatesLoop(pa, pb) {
			if err := mod.SwapSinks(pa, pb); err != nil {
				return true // same-net swap, skip
			}
		}
		pats := RandomPatterns(rng, 3, 8)
		res, err := Compare(nl, mod, pats, 8)
		if err != nil {
			return false
		}
		oer, hd := res.OER, res.HD
		return oer >= 0 && oer <= 1 && hd >= 0 && hd <= 1 && hd <= oer+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEvalFullAdder1MPatterns(b *testing.B) {
	nl := buildFullAdder()
	s, _ := New(nl)
	rng := rand.New(rand.NewSource(1))
	words := 1 << 14 // 1,048,576 patterns
	pats := RandomPatterns(rng, 3, words)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Eval(pats, words); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCompareAllocs pins sim.Compare's allocations on c880 at 16 words.
// Each Eval carves every gate output from one words × gates buffer, so
// the count does not grow with the gate count (one slice per gate output
// would make it 777).
func TestCompareAllocs(t *testing.T) {
	nl, err := bench.ISCAS85("c880")
	if err != nil {
		t.Fatal(err)
	}
	const words = 16
	pats := RandomPatterns(rand.New(rand.NewSource(1)), nl.NumPIs(), words)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Compare(nl, nl, pats, words); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 13 {
		t.Fatalf("Compare allocates %.0f times per call on c880 at %d words, want 13", allocs, words)
	}
}
