// Package splitmfg's benchmark harness: one testing.B benchmark per table
// and figure of the paper, plus ablation benches for the design choices
// called out in DESIGN.md. Each benchmark regenerates its experiment at a
// reduced scale per iteration (the full-scale runs are driven by
// cmd/smbench, which prints the rendered tables).
//
// Run with: go test -bench=. -benchmem
package splitmfg

import (
	"context"
	"testing"

	"splitmfg/internal/attack/proximity"
	"splitmfg/internal/bench"
	"splitmfg/internal/cell"
	"splitmfg/internal/defense/correction"
	"splitmfg/internal/defense/randomize"
	"splitmfg/internal/flow"
	"splitmfg/internal/report"
)

// benchCfg is the reduced-scale configuration used by the benchmarks.
func benchCfg() report.Config {
	return report.Config{
		Seed:           1,
		SuperblueScale: 800, // ~1k gates per superblue stand-in
		ISCASSubset:    []string{"c432", "c880"},
		PatternWords:   32,
	}
}

// BenchmarkTable1 regenerates the distance statistics of Table 1.
func BenchmarkTable1(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := report.Table1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates the per-boundary via deltas of Table 2.
func BenchmarkTable2(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := report.Table2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates the crouting attack metrics of Table 3.
func BenchmarkTable3(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := report.Table3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4 regenerates the placement-defense comparison of Table 4.
func BenchmarkTable4(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := report.Table4(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5 regenerates the routing-defense comparison of Table 5.
func BenchmarkTable5(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := report.Table5(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6 regenerates the routing-blockage via comparison of Table 6.
func BenchmarkTable6(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := report.Table6(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4 regenerates the per-connection distance series of Fig. 4.
func BenchmarkFig4(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := report.Fig4CSV("superblue18", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 regenerates the per-layer wirelength profile of Fig. 5.
func BenchmarkFig5(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := report.Fig5("superblue18", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6 regenerates the PPA comparison of Fig. 6 / Sec 5.3.
func BenchmarkFig6(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := report.Fig6PPA(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPPASuperblue regenerates the superblue PPA rows of Sec 5.3.
func BenchmarkPPASuperblue(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := report.SuperbluePPA(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSwapBudget sweeps the swap budget (DESIGN.md ablation:
// swap-until-OER vs fixed counts).
func BenchmarkAblationSwapBudget(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := report.AblationSwapBudget("c432", []int{4, 16}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLiftLayer contrasts lifting to M6 vs M8 (DESIGN.md
// ablation): build the protected design at both layers and compare via
// profiles.
func BenchmarkAblationLiftLayer(b *testing.B) {
	nl, err := bench.ISCAS85("c432")
	if err != nil {
		b.Fatal(err)
	}
	lib := cell.NewNangate45Like()
	for i := 0; i < b.N; i++ {
		r, err := randomize.Randomize(context.Background(), nl, 1, randomize.Options{PatternWords: 16})
		if err != nil {
			b.Fatal(err)
		}
		for _, lift := range []int{6, 8} {
			p, err := correction.BuildProtected(nl, r, lib,
				correction.Options{LiftLayer: lift, UtilPercent: 70, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			if err := p.Design.Router.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationAttackHints contrasts the attack with all five hints vs
// distance-only (DESIGN.md ablation).
func BenchmarkAblationAttackHints(b *testing.B) {
	nl, err := bench.ISCAS85("c880")
	if err != nil {
		b.Fatal(err)
	}
	lib := cell.NewNangate45Like()
	d, err := correction.BuildOriginal(nl, lib, correction.Options{UtilPercent: 70, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sv, err := d.Split(3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proximity.Attack(context.Background(), d, sv, proximity.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
		if _, err := proximity.Attack(context.Background(), d, sv, proximity.Options{Candidates: 24}); err != nil { // distance only
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCellPlacement contrasts midpoint-jitter correction-cell
// placement against a degenerate sink-adjacent policy by measuring the
// resulting protected-CCR difference (DESIGN.md ablation).
func BenchmarkAblationCellPlacement(b *testing.B) {
	nl, err := bench.ISCAS85("c880")
	if err != nil {
		b.Fatal(err)
	}
	lib := cell.NewNangate45Like()
	for i := 0; i < b.N; i++ {
		res, err := flow.Protect(context.Background(), lib, flow.Bench{Netlist: nl, LiftLayer: 6, UtilPercent: 70}, flow.Options{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := flow.EvaluateSecurity(context.Background(), res.Protected.Design, nl, res.Protected.ProtectedSinks(), flow.Options{
			SplitLayers: []int{3}, Seed: 1, PatternWords: 16,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullFlowC880 measures the end-to-end protection flow.
func BenchmarkFullFlowC880(b *testing.B) {
	nl, err := bench.ISCAS85("c880")
	if err != nil {
		b.Fatal(err)
	}
	lib := cell.NewNangate45Like()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flow.Protect(context.Background(), lib, flow.Bench{Netlist: nl, LiftLayer: 6, UtilPercent: 70}, flow.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
