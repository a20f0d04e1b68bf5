package bench

import (
	"math/rand"
	"testing"

	"splitmfg/internal/netlist"
	"splitmfg/internal/sim"
)

func TestISCASNames(t *testing.T) {
	names := ISCASNames()
	if len(names) != 9 {
		t.Fatalf("got %d names", len(names))
	}
	if names[0] != "c432" || names[8] != "c7552" {
		t.Fatalf("order wrong: %v", names)
	}
}

func TestISCASSizes(t *testing.T) {
	want := map[string][3]int{ // PI, PO(min), gates
		"c432":  {36, 7, 160},
		"c880":  {60, 26, 383},
		"c2670": {233, 140, 1193},
		"c7552": {207, 108, 3512},
	}
	for name, w := range want {
		nl, err := ISCAS85(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := nl.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if nl.NumPIs() != w[0] {
			t.Errorf("%s: PIs = %d, want %d", name, nl.NumPIs(), w[0])
		}
		if nl.NumPOs() < w[1] {
			t.Errorf("%s: POs = %d, want >= %d", name, nl.NumPOs(), w[1])
		}
		if nl.NumGates() != w[2] {
			t.Errorf("%s: gates = %d, want %d", name, nl.NumGates(), w[2])
		}
		if nl.HasCombLoop() {
			t.Errorf("%s: has loop", name)
		}
	}
}

func TestISCASDeterministic(t *testing.T) {
	a, err := ISCAS85("c880")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ISCAS85("c880")
	if err != nil {
		t.Fatal(err)
	}
	if !a.SameStructure(b) {
		t.Fatal("generator not deterministic")
	}
}

func TestUnknownNames(t *testing.T) {
	if _, err := ISCAS85("c999"); err == nil {
		t.Error("expected error for unknown ISCAS name")
	}
	if _, err := Superblue("superblue99", 10); err == nil {
		t.Error("expected error for unknown superblue name")
	}
	if _, err := Superblue("superblue1", 0); err == nil {
		t.Error("expected error for scale 0")
	}
	if _, err := SuperblueUtil("nope"); err == nil {
		t.Error("expected error for unknown util query")
	}
}

func TestSuperblueScaling(t *testing.T) {
	nl, err := Superblue("superblue18", 200)
	if err != nil {
		t.Fatal(err)
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	stats := nl.ComputeStats()
	// 670323 nets / 200 ≈ 3350 gates; allow generator slack.
	if stats.Gates < 3000 || stats.Gates > 3700 {
		t.Errorf("gates = %d, want ≈3350", stats.Gates)
	}
	if stats.DFFs == 0 {
		t.Error("superblue stand-in should contain flip-flops")
	}
	if nl.HasCombLoop() {
		t.Error("loop in generated design")
	}
	u, err := SuperblueUtil("superblue18")
	if err != nil || u != 67 {
		t.Errorf("util = %d, %v", u, err)
	}
}

func TestSuperblueAllNamesSmall(t *testing.T) {
	for _, name := range SuperblueNames() {
		nl, err := Superblue(name, 500)
		if err != nil {
			t.Fatal(err)
		}
		if err := nl.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// No dangling nets: every net has a sink or feeds a PO.
		for _, n := range nl.Nets {
			if n.FanoutCount() == 0 {
				t.Fatalf("%s: net %q dangles", name, n.Name)
			}
		}
	}
}

func TestMultiplierCorrectness(t *testing.T) {
	n := 4
	nl := Multiplier("mul4", n)
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(nl)
	if err != nil {
		t.Fatal(err)
	}
	pats, words, err := sim.ExhaustivePatterns(2 * n)
	if err != nil {
		t.Fatal(err)
	}
	val, err := s.Eval(pats, words)
	if err != nil {
		t.Fatal(err)
	}
	po := s.POWords(val)
	for p := 0; p < 1<<(2*n); p++ {
		var av, bv uint64
		for i := 0; i < n; i++ {
			av |= (pats[i][p/64] >> uint(p%64) & 1) << uint(i)
		}
		for i := 0; i < n; i++ {
			bv |= (pats[n+i][p/64] >> uint(p%64) & 1) << uint(i)
		}
		want := av * bv
		var got uint64
		for i := 0; i < 2*n; i++ {
			got |= (po[i][p/64] >> uint(p%64) & 1) << uint(i)
		}
		if got != want {
			t.Fatalf("%d * %d = %d, got %d", av, bv, want, got)
		}
	}
}

func TestC6288IsMultiplier(t *testing.T) {
	nl, err := ISCAS85("c6288")
	if err != nil {
		t.Fatal(err)
	}
	if nl.NumPIs() != 32 {
		t.Fatalf("PIs = %d", nl.NumPIs())
	}
	// Spot-check 3 random products on the 16x16 multiplier.
	s, err := sim.New(nl)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	pats := make([][]uint64, 32)
	type cse struct{ a, b uint64 }
	cases := []cse{{3, 5}, {65535, 65535}, {uint64(rng.Intn(65536)), uint64(rng.Intn(65536))}}
	for i := range pats {
		pats[i] = make([]uint64, 1)
	}
	for ci, c := range cases {
		for i := 0; i < 16; i++ {
			if c.a>>uint(i)&1 == 1 {
				pats[i][0] |= 1 << uint(ci)
			}
			if c.b>>uint(i)&1 == 1 {
				pats[16+i][0] |= 1 << uint(ci)
			}
		}
	}
	val, err := s.Eval(pats, 1)
	if err != nil {
		t.Fatal(err)
	}
	po := s.POWords(val)
	for ci, c := range cases {
		var got uint64
		for i := 0; i < 32; i++ {
			got |= (po[i][0] >> uint(ci) & 1) << uint(i)
		}
		if got != c.a*c.b {
			t.Fatalf("%d*%d: got %d want %d", c.a, c.b, got, c.a*c.b)
		}
	}
}

func TestGenerateRespectsSpec(t *testing.T) {
	nl, err := Generate(Spec{Name: "t", PIs: 10, POs: 5, Gates: 100, Seed: 42, Locality: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if nl.NumPIs() != 10 || nl.NumGates() != 100 || nl.NumPOs() < 5 {
		t.Fatalf("spec violated: %v", nl.ComputeStats())
	}
	if _, err := Generate(Spec{Name: "bad"}); err == nil {
		t.Fatal("expected error for empty spec")
	}
}

// TestGenerateRejectsMorePOsThanGates: once every gate output is a PO
// the fill loop would find no unused output, so such a spec must fail
// up front instead of hanging.
func TestGenerateRejectsMorePOsThanGates(t *testing.T) {
	if _, err := Generate(Spec{Name: "t", PIs: 2, POs: 5, Gates: 3, Seed: 1}); err == nil {
		t.Fatal("a 3-gate spec with 5 POs was accepted")
	}
}

func TestGenerateLocalityAffectsStructure(t *testing.T) {
	local, _ := Generate(Spec{Name: "l", PIs: 20, POs: 5, Gates: 2000, Seed: 7, Locality: 0.95, Window: 40})
	global, _ := Generate(Spec{Name: "g", PIs: 20, POs: 5, Gates: 2000, Seed: 7, Locality: 0.0})
	// Local designs connect to recent gates: mean |driver-sink| index gap
	// must be far smaller than the global variant's.
	gap := func(nl *netlist.Netlist) float64 {
		total, cnt := 0.0, 0
		for _, g := range nl.Gates {
			for _, netID := range g.Fanin {
				if d := nl.Nets[netID].Driver; d >= 0 {
					diff := g.ID - d
					if diff < 0 {
						diff = -diff
					}
					total += float64(diff)
					cnt++
				}
			}
		}
		return total / float64(cnt)
	}
	gl, gg := gap(local), gap(global)
	if gl*3 > gg {
		t.Fatalf("locality had no effect: local=%.1f global=%.1f", gl, gg)
	}
}

func TestGeneratedDepthReasonable(t *testing.T) {
	nl, err := ISCAS85("c3540")
	if err != nil {
		t.Fatal(err)
	}
	d := nl.ComputeStats().Depth
	if d < 8 {
		t.Fatalf("depth %d too shallow for a c3540-class design", d)
	}
}
