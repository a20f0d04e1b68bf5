package flow

import (
	"context"
	"testing"

	"splitmfg/internal/bench"
	"splitmfg/internal/cell"
	"splitmfg/internal/defense/correction"
	"splitmfg/internal/defense/randomize"
	"splitmfg/internal/layout"
)

// TestPaperFidelityISCAS is the paper-fidelity oracle: on every ISCAS-85
// design at seed 1 it builds the proposed scheme's layout and the
// naive-lifting baseline the way Pipeline.Randomized and
// Pipeline.NaiveLifted do (same randomization, same lifted sinks), plus
// the unprotected original, and asserts the paper's qualitative claims:
//
//   - randomization reaches OER >= 95% on the erroneous netlist;
//   - the BEOL restores the original netlist exactly;
//   - the proximity attack's CCR on the protected sinks is strictly
//     lower on the proposed layout than on the naive-lifted one, and its
//     recovered netlist still errs (OER >= 90%);
//   - both lifting schemes add V56+V67+V78 vias over the original, and
//     the proposed layout adds more than naive lifting (Table 2's
//     ranking).
//
// The paper's 0% CCR and "proposed below original" claims are not
// asserted: at these die sizes neither holds on every design (see
// ROADMAP item 1). A change that alters layouts must keep this test
// green. Split layers M3–M5 and 4 pattern words keep it inside the
// tier-1 budget without dropping designs.
func TestPaperFidelityISCAS(t *testing.T) {
	lib := cell.NewNangate45Like()
	for _, name := range bench.ISCASNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			nl, err := bench.ISCAS85(name)
			if err != nil {
				t.Fatal(err)
			}
			opt := correction.Options{LiftLayer: 6, UtilPercent: 70, Seed: 1}
			r, err := randomize.Randomize(context.Background(), nl, 1, randomize.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if r.OER < 0.95 {
				t.Errorf("erroneous-netlist OER = %.3f, want >= 0.95", r.OER)
			}
			prop, err := correction.BuildProtected(nl, r, lib, opt)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := prop.RestoredNetlist()
			if err != nil {
				t.Fatal(err)
			}
			if !rec.SameStructure(nl) {
				t.Error("BEOL-restored netlist differs from the original")
			}
			lifted, err := correction.BuildNaiveLifted(nl, r.Protected, lib, opt)
			if err != nil {
				t.Fatal(err)
			}
			orig, err := correction.BuildOriginal(nl, lib, opt)
			if err != nil {
				t.Fatal(err)
			}

			attack := func(d *layout.Design) SecurityResult {
				sec, err := EvaluateSecurity(context.Background(), d, nl, r.Protected, Options{
					SplitLayers: []int{3, 4, 5}, Seed: 1, PatternWords: 4, Parallelism: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				return sec
			}
			ps, ls := attack(prop.Design), attack(lifted.Design)
			if ps.Protected == 0 || ls.Protected == 0 {
				t.Fatalf("no protected fragments to attack: proposed %d, lifted %d", ps.Protected, ls.Protected)
			}
			if ps.CCR >= ls.CCR {
				t.Errorf("proposed CCR %.1f%% is not below naive-lifted CCR %.1f%%", 100*ps.CCR, 100*ls.CCR)
			}
			if ps.OER < 0.9 {
				t.Errorf("protected OER = %.3f, want >= 0.9", ps.OER)
			}

			high := func(d *layout.Design) int64 {
				v := d.Router.ComputeStats().Vias
				return v[5] + v[6] + v[7]
			}
			vo, vl, vp := high(orig), high(lifted.Design), high(prop.Design)
			if vl <= vo || vp <= vo {
				t.Errorf("V56+V67+V78: original %d, lifted %d, proposed %d (both lifting schemes must add vias)", vo, vl, vp)
			}
			if vp <= vl {
				t.Errorf("V56+V67+V78: proposed %d, lifted %d (Table 2 ranks proposed above naive lifting)", vp, vl)
			}
			t.Logf("OER %.3f; CCR proposed %.1f%% lifted %.1f%%; protected OER %.3f; V56+V67+V78 original %d lifted %d proposed %d",
				r.OER, 100*ps.CCR, 100*ls.CCR, ps.OER, vo, vl, vp)
		})
	}
}
