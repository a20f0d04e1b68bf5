package report

import (
	"context"
	"fmt"

	"splitmfg/internal/bench"
	"splitmfg/internal/cell"
	"splitmfg/internal/defense/correction"
	defengine "splitmfg/internal/defense/engine"
	"splitmfg/internal/defense/randomize"
	"splitmfg/internal/flow"
	"splitmfg/internal/layout"
	"splitmfg/internal/netlist"
	"splitmfg/internal/timing"
)

// Paper-published Table 4/5 values for side-by-side printing.
var paperTable4 = map[string][3]float64{ // benchmark -> original CCR/OER/HD
	"c432": {92.4, 75.4, 23.4}, "c880": {100, 0, 0}, "c1355": {95.4, 59.5, 2.4},
	"c1908": {97.5, 52.3, 4.3}, "c2670": {86.3, 99.9, 7}, "c3540": {88.2, 95.4, 18.2},
	"c5315": {93.5, 98.7, 4.3}, "c6288": {97.8, 36.8, 3}, "c7552": {97.8, 69.5, 1.6},
}

// table4Benchmarks is the paper's Table 4/5 set (ISCAS-85 without c1355's
// sibling c499; nine circuits).
func table4Benchmarks(cfg Config) []string {
	if len(cfg.ISCASSubset) > 0 {
		return cfg.ISCASSubset
	}
	return bench.ISCASNames()
}

// SecurityRow is one benchmark's attack outcome for one defense variant.
type SecurityRow struct {
	Benchmark string
	Variant   string
	CCR       float64 // percent
	OER       float64 // percent
	HD        float64 // percent
	Frags     int
}

// senguptaVariants maps Table 4's short names for the Sengupta et al.
// strategies to their defense-registry names.
var senguptaVariants = map[string]string{
	"random": "sengupta-random", "g-color": "sengupta-gcolor",
	"g-type1": "sengupta-gtype1", "g-type2": "sengupta-gtype2",
}

// iscasVariantDesign builds the named defense variant for one benchmark and
// returns the design to attack plus the protected-pin filter (nil = score
// all crossing nets). "original" is the unprotected layout, "proposed" the
// escalating flow.Protect; every other variant is a defense-registry name
// (or a Sengupta short name).
func iscasVariantDesign(nl *netlist.Netlist, variant string, lib *cell.Library, cfg Config) (*layout.Design, map[netlist.PinRef]bool, error) {
	switch variant {
	case "original":
		d, err := correction.BuildOriginal(nl, lib, correction.Options{LiftLayer: 6, UtilPercent: 70, Seed: cfg.Seed})
		return d, nil, err
	case "proposed":
		res, err := flow.Protect(context.Background(), lib,
			flow.Bench{Netlist: nl, LiftLayer: 6, UtilPercent: 70, PPABudgetPercent: 20}, flow.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, nil, err
		}
		return res.Protected.Design, res.Protected.ProtectedSinks(), nil
	}
	name := variant
	if reg, ok := senguptaVariants[variant]; ok {
		name = reg
	}
	def, ok := defengine.Lookup(name)
	if !ok {
		return nil, nil, fmt.Errorf("report: unknown variant %q", variant)
	}
	p, err := def.Protect(context.Background(), nl, lib, defengine.Options{Seed: cfg.Seed})
	if err != nil {
		return nil, nil, err
	}
	return p.Design, p.ProtectedPins, nil
}

// SecurityStudy attacks one variant across the configured benchmarks.
func SecurityStudy(variant string, cfg Config) ([]SecurityRow, error) {
	cfg = cfg.WithDefaults()
	lib := cell.NewNangate45Like()
	var rows []SecurityRow
	for _, name := range table4Benchmarks(cfg) {
		nl, err := bench.ISCAS85(name)
		if err != nil {
			return nil, err
		}
		d, filter, err := iscasVariantDesign(nl, variant, lib, cfg)
		if err != nil {
			return nil, err
		}
		opt := flow.Options{SplitLayers: []int{3, 4, 5}, Seed: cfg.Seed, PatternWords: cfg.PatternWords}
		sec, err := flow.EvaluateSecurity(context.Background(), d, nl, filter, opt)
		if err != nil {
			return nil, err
		}
		rep := sec.Report(name, opt)
		rows = append(rows, SecurityRow{
			Benchmark: name, Variant: variant,
			CCR: rep.CCRPercent, OER: rep.OERPercent, HD: rep.HDPercent, Frags: rep.Fragments,
		})
	}
	return rows, nil
}

// Table4 regenerates the paper's Table 4: the network-flow attack against
// original layouts, placement-perturbation defenses, and the proposed
// scheme, averaged over splits after M3/M4/M5.
func Table4(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	variants := []string{"original", "placement-perturbation", "random", "g-color", "g-type1", "g-type2", "proposed"}
	t := &Table{
		Title:   "Table 4: CCR/OER/HD (%) vs placement-centric defenses, split averaged over M3/M4/M5",
		Columns: []string{"bench", "variant", "CCR", "OER", "HD", "frags", "paper(orig CCR/OER/HD)"},
		Notes: []string{
			"paper column quotes the published Original-layout numbers; published Proposed is CCR=0, OER=99.9, HD=40.4 avg",
			"absolute CCRs are lower than the paper's (synthetic netlists carry a weaker proximity signal); the ordering original >> defended and proposed ≈ 0 is the reproduced claim",
		},
	}
	for _, v := range variants {
		rows, err := SecurityStudy(v, cfg)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			ref := ""
			if p, ok := paperTable4[r.Benchmark]; ok && v == "original" {
				ref = fmt.Sprintf("%.1f/%.1f/%.1f", p[0], p[1], p[2])
			}
			if v == "proposed" {
				ref = "0/99.9/≈40"
			}
			t.Rows = append(t.Rows, []string{
				r.Benchmark, r.Variant, f1(r.CCR), f1(r.OER), f1(r.HD),
				fmt.Sprintf("%d", r.Frags), ref,
			})
		}
	}
	return t, nil
}

// Table5 regenerates the paper's Table 5: routing-centric defenses.
func Table5(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	variants := []string{"original", "pin-swapping", "routing-perturbation", "synergistic", "proposed"}
	t := &Table{
		Title:   "Table 5: CCR/OER/HD (%) vs routing-centric defenses, split averaged over M3/M4/M5",
		Columns: []string{"bench", "variant", "CCR", "OER", "HD", "frags"},
		Notes: []string{
			"paper averages: original 94.3/65.3/7.1, pin swapping 88.1/-/33.4, routing perturbation 72.4/99.9/28.9, synergistic 20.8/-/28.9, proposed 0/99.9/40.4",
		},
	}
	for _, v := range variants {
		rows, err := SecurityStudy(v, cfg)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			t.Rows = append(t.Rows, []string{
				r.Benchmark, r.Variant, f1(r.CCR), f1(r.OER), f1(r.HD), fmt.Sprintf("%d", r.Frags),
			})
		}
	}
	return t, nil
}

// Fig6PPA regenerates Fig. 6 and the Sec.-5.3 PPA discussion for ISCAS-85:
// area/power/delay overheads of the proposed scheme (vs original layouts)
// next to the naive-lifting control on the same protected-net set.
func Fig6PPA(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	lib := cell.NewNangate45Like()
	t := &Table{
		Title:   "Fig. 6 / Sec 5.3: PPA overheads on ISCAS-85 (20% budget, lift M6)",
		Columns: []string{"bench", "swaps", "area%", "power%", "delay%", "naive power%", "naive delay%"},
		Notes: []string{
			"paper: zero area cost; ISCAS-85 average ≈11.5% power, ≈10% delay; proposed ≈3.4%/2.6% above naive lifting",
		},
	}
	var sumP, sumD, sumNP, sumND float64
	for _, name := range table4Benchmarks(cfg) {
		nl, err := bench.ISCAS85(name)
		if err != nil {
			return nil, err
		}
		res, err := flow.Protect(context.Background(), lib,
			flow.Bench{Netlist: nl, LiftLayer: 6, UtilPercent: 70, PPABudgetPercent: 20}, flow.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		// Naive lifting on the same sinks.
		naive, err := correction.BuildNaiveLifted(nl, res.Protected.ProtectedSinks(), lib,
			correction.Options{LiftLayer: 6, UtilPercent: 70, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		nppa, err := timing.AnalyzeRestored(naive.Design, nl, naive.Design.Masters, lib)
		if err != nil {
			return nil, err
		}
		_, npOH, ndOH := nppa.Overhead(res.BasePPA)
		sumP += res.PowerOH
		sumD += res.DelayOH
		sumNP += npOH
		sumND += ndOH
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprintf("%d", res.Swaps), pct(res.AreaOH),
			pct(res.PowerOH), pct(res.DelayOH), pct(npOH), pct(ndOH),
		})
	}
	if n := float64(len(t.Rows)); n > 0 {
		t.Rows = append(t.Rows, []string{"average", "", "0.0%", pct(sumP / n), pct(sumD / n), pct(sumNP / n), pct(sumND / n)})
	}
	return t, nil
}

// AblationSwapBudget measures security and PPA as a function of the swap
// budget (DESIGN.md ablation: swap-until-OER vs fixed counts).
func AblationSwapBudget(name string, budgets []int, cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	lib := cell.NewNangate45Like()
	nl, err := bench.ISCAS85(name)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Ablation: swap budget on %s (lift M6)", name),
		Columns: []string{"maxSwaps", "swaps", "OER%", "CCR%", "HD%", "power%", "delay%"},
	}
	copt := correction.Options{LiftLayer: 6, UtilPercent: 70, Seed: cfg.Seed}
	baseline, err := correction.BuildOriginal(nl, lib, copt)
	if err != nil {
		return nil, err
	}
	basePPA, err := timing.AnalyzeDesign(baseline, lib)
	if err != nil {
		return nil, err
	}
	for _, b := range budgets {
		r, err := randomize.Randomize(context.Background(), nl, cfg.Seed, randomize.Options{MaxSwaps: b, TargetOER: 2})
		if err != nil {
			return nil, err
		}
		p, err := correction.BuildProtected(nl, r, lib, copt)
		if err != nil {
			return nil, err
		}
		sec, err := flow.EvaluateSecurity(context.Background(), p.Design, nl, p.ProtectedSinks(),
			flow.Options{SplitLayers: []int{3, 4, 5}, Seed: cfg.Seed, PatternWords: cfg.PatternWords})
		if err != nil {
			return nil, err
		}
		ppa, err := timing.AnalyzeRestored(p.Design, nl, p.Design.Masters, lib)
		if err != nil {
			return nil, err
		}
		_, pOH, dOH := ppa.Overhead(basePPA)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", b), fmt.Sprintf("%d", len(r.Swaps)), f1(r.OER * 100),
			f1(sec.CCR * 100), f1(sec.HD * 100), pct(pOH), pct(dOH),
		})
	}
	return t, nil
}
