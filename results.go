package splitmfg

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"splitmfg/internal/defense/correction"
	"splitmfg/internal/defio"
	"splitmfg/internal/flow"
	"splitmfg/internal/layout"
	"splitmfg/internal/netlist"
	"splitmfg/internal/verilog"
)

// ProtectReport is the unified, JSON-serializable summary of a Protect
// run, shared by the CLIs and the experiment generators. It carries no
// wall-clock fields: a fixed seed and configuration marshal to
// byte-identical JSON.
type ProtectReport = flow.ProtectReport

// SecurityReport is the unified, JSON-serializable summary of a security
// evaluation: the network-flow proximity attack averaged over split
// layers, with a per-layer breakdown.
type SecurityReport = flow.SecurityReport

// LayerReport is one split layer's attack outcome inside a SecurityReport.
type LayerReport = flow.LayerReport

// AttackReport is one attacker engine's outcome at one split layer inside
// a LayerReport.
type AttackReport = flow.AttackReport

// AttackerReport is one attacker engine's averages over the non-vacuous
// split layers inside a SecurityReport.
type AttackerReport = flow.AttackerReport

// PPAReport is the power/performance/area snapshot inside a ProtectReport.
type PPAReport = flow.PPAReport

// MatrixReport is the unified, JSON-serializable defense×attacker cross
// matrix produced by Pipeline.Matrix: rows are defenses (with PPA deltas
// against the unprotected baseline), columns are attackers, cells are
// CCR/OER/HD averaged over the split layers.
type MatrixReport = flow.MatrixReport

// MatrixRowReport is one defense's row inside a MatrixReport.
type MatrixRowReport = flow.MatrixRowReport

// MatrixCellReport is one (defense, attacker) cell inside a MatrixRowReport.
type MatrixCellReport = flow.MatrixCellReport

// SuiteReport is the unified, JSON-serializable multi-benchmark,
// multi-seed matrix produced by Pipeline.Suite: per-benchmark defense rows
// aggregated over seed replicates (mean ± std), the cross-benchmark
// aggregate behind the paper's Tables 4/5 bottom lines, and the suite
// cache's hit/miss counters.
type SuiteReport = flow.SuiteReport

// SuiteBenchReport is one benchmark's section inside a SuiteReport.
type SuiteBenchReport = flow.SuiteBenchReport

// SuiteRowReport is one defense's aggregated row inside a SuiteReport.
type SuiteRowReport = flow.SuiteRowReport

// SuiteCellReport is one (defense, attacker) cell inside a SuiteRowReport.
type SuiteCellReport = flow.SuiteCellReport

// DistReport is a mean ± standard deviation pair inside suite reports.
type DistReport = flow.DistReport

// CacheStats is the suite cache's deterministic hit/miss counters.
type CacheStats = flow.CacheStats

// MarshalReport renders any report type as indented JSON.
func MarshalReport(v interface{}) ([]byte, error) {
	return json.MarshalIndent(v, "", "  ")
}

// Layout is a placed-and-routed design ready to be split, attacked, or
// exported. Layouts are produced by Pipeline.Protect (baseline and
// protected variants) and Pipeline.Baseline/NaiveLifted.
type Layout struct {
	name     string
	d        *layout.Design
	ref      *netlist.Netlist        // the attacker's target netlist
	onlyPins map[netlist.PinRef]bool // protected sinks to score; nil = all
}

// Name returns the benchmark name the layout was built from.
func (l *Layout) Name() string { return l.name }

// WriteDEF writes the full layout as DEF.
func (l *Layout) WriteDEF(w io.Writer) error { return defio.Write(w, l.d) }

// WriteSplitDEF writes the FEOL-only DEF after splitting at the layer.
func (l *Layout) WriteSplitDEF(w io.Writer, layer int) error {
	return defio.WriteSplit(w, l.d, layer)
}

// WriteRT writes the .rt routing dump routing-centric attack tooling reads.
func (l *Layout) WriteRT(w io.Writer) error { return defio.WriteRT(w, l.d) }

// WriteOut writes the .out vpin listing for the split layer.
func (l *Layout) WriteOut(w io.Writer, layer int) error {
	return defio.WriteOut(w, l.d, layer)
}

// SplitSummary describes the FEOL view after splitting at one layer.
type SplitSummary struct {
	Layer       int `json:"layer"`
	VPins       int `json:"vpins"`
	Fragments   int `json:"fragments"`
	DriverFrags int `json:"driver_fragments"`
	SinkFrags   int `json:"sink_fragments"`
}

// Split computes the exposed surface after splitting at the layer.
func (l *Layout) Split(layer int) (SplitSummary, error) {
	sv, err := l.d.Split(layer)
	if err != nil {
		return SplitSummary{}, err
	}
	return SplitSummary{
		Layer: layer, VPins: len(sv.VPins), Fragments: len(sv.Frags),
		DriverFrags: len(sv.DriverFrags()), SinkFrags: len(sv.SinkFrags()),
	}, nil
}

// ProtectResult is the outcome of Pipeline.Protect: the protected layout,
// the unprotected baseline it is compared against, and the PPA accounting.
type ProtectResult struct {
	design *Design
	report ProtectReport
	res    *flow.ProtectResult
}

// Report summarizes the run as the unified JSON-serializable report.
func (r *ProtectResult) Report() ProtectReport { return r.report }

// ProtectedLayout returns the protected design, scored over its protected
// (randomized) sink pins — the paper's evaluation target.
func (r *ProtectResult) ProtectedLayout() *Layout {
	return &Layout{
		name: r.design.name, d: r.res.Protected.Design,
		ref: r.design.nl, onlyPins: r.res.Protected.ProtectedSinks(),
	}
}

// BaselineLayout returns the unprotected reference layout.
func (r *ProtectResult) BaselineLayout() *Layout {
	return &Layout{name: r.design.name, d: r.res.Baseline, ref: r.design.nl}
}

// VerifyRestoration reconstructs the netlist realized by the BEOL-restored
// physical design and reports whether it equals the original — the
// scheme's central correctness guarantee (the paper's Formality step).
func (r *ProtectResult) VerifyRestoration() (bool, error) {
	rec, err := r.res.Protected.RestoredNetlist()
	if err != nil {
		return false, err
	}
	return rec.SameStructure(r.design.nl), nil
}

// WriteDEF writes the protected layout as DEF.
func (r *ProtectResult) WriteDEF(w io.Writer) error {
	return defio.Write(w, r.res.Protected.Design)
}

// WriteErroneousVerilog writes the erroneous (FEOL) netlist — what the fab
// sees — as structural Verilog.
func (r *ProtectResult) WriteErroneousVerilog(w io.Writer) error {
	return verilog.Write(w, r.res.Protected.Erroneous)
}

// protectedOf wraps a correction-built layout as a scored Layout.
func protectedOf(name string, ref *netlist.Netlist, p *correction.Protected) *Layout {
	return &Layout{name: name, d: p.Design, ref: ref, onlyPins: p.ProtectedSinks()}
}

// RenderMatrix renders a MatrixReport as a fixed-width text table: one row
// per defense with its PPA overheads, one CCR/OER/HD column group per
// attacker. Metrics-only attackers (no assignment to score) render as "-".
func RenderMatrix(rep *MatrixReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "defense x attacker matrix: %s (split layers %v, seed %d)\n",
		rep.Design, rep.SplitLayers, rep.Seed)
	fmt.Fprintf(&b, "%-24s %24s", "defense", "overhead area/pwr/dly %")
	for _, a := range rep.Attackers {
		fmt.Fprintf(&b, " | %-22s", a+" CCR/OER/HD %")
	}
	b.WriteString("\n")
	for _, row := range rep.Rows {
		fmt.Fprintf(&b, "%-24s %8.1f /%6.1f /%6.1f", row.Defense,
			row.AreaOHPct, row.PowerOHPct, row.DelayOHPct)
		for _, c := range row.Cells {
			if !c.Scored {
				fmt.Fprintf(&b, " | %-22s", "metrics-only")
				continue
			}
			fmt.Fprintf(&b, " | %6.1f /%6.1f /%6.1f", c.CCRPercent, c.OERPercent, c.HDPercent)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// fmtDist renders a mean ± std pair compactly.
func fmtDist(d DistReport) string {
	return fmt.Sprintf("%.1f±%.1f", d.Mean, d.Std)
}

// renderSuiteRows renders one block of suite rows with the shared
// matrix-style header: one defense per line with its PPA overheads, one
// CCR/OER/HD column group per attacker, every number as mean ± std.
func renderSuiteRows(b *strings.Builder, attackers []string, rows []SuiteRowReport) {
	fmt.Fprintf(b, "%-24s %34s", "defense", "overhead area/pwr/dly %")
	for _, a := range attackers {
		// 31 = the 9+2+9+2+9 data cell width, keeping the '|' separators
		// aligned between header and rows.
		fmt.Fprintf(b, " | %-31s", a+" CCR/OER/HD %")
	}
	b.WriteString("\n")
	for _, row := range rows {
		fmt.Fprintf(b, "%-24s %10s /%10s /%10s", row.Defense,
			fmtDist(row.AreaOHPct), fmtDist(row.PowerOHPct), fmtDist(row.DelayOHPct))
		for _, c := range row.Cells {
			if !c.Scored {
				fmt.Fprintf(b, " | %-32s", "metrics-only")
				continue
			}
			fmt.Fprintf(b, " | %9s /%9s /%9s",
				fmtDist(c.CCRPercent), fmtDist(c.OERPercent), fmtDist(c.HDPercent))
		}
		b.WriteString("\n")
	}
}

// RenderSuite renders a SuiteReport as fixed-width text: the
// cross-benchmark aggregate first (the paper's Tables 4/5 bottom lines),
// then one section per benchmark, then the suite cache counters.
func RenderSuite(rep *SuiteReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "suite: %d benchmarks x %d defenses x %d attackers, %d replicate(s) (seed %d, split layers %v)\n",
		len(rep.Benchmarks), len(rep.Defenses), len(rep.Attackers),
		rep.Replicates, rep.Seed, rep.SplitLayers)
	fmt.Fprintf(&b, "\n== aggregate: mean ± std across benchmarks ==\n")
	renderSuiteRows(&b, rep.Attackers, rep.Aggregate)
	for _, br := range rep.PerBenchmark {
		fmt.Fprintf(&b, "\n== %s: mean ± std over %d replicate(s) ==\n", br.Benchmark, rep.Replicates)
		renderSuiteRows(&b, rep.Attackers, br.Rows)
	}
	fmt.Fprintf(&b, "\ncache: %d hits, %d misses\n", rep.Cache.Hits, rep.Cache.Misses)
	return b.String()
}

// Headline renders the headline numbers of a report for quick printing.
func Headline(rep SecurityReport) string {
	return fmt.Sprintf("CCR %.1f%%  OER %.1f%%  HD %.1f%% over %d fragments (%d layers)",
		rep.CCRPercent, rep.OERPercent, rep.HDPercent, rep.Fragments, rep.LayersScored)
}
