package splitmfg

import (
	"fmt"

	"splitmfg/internal/report"
)

// ExperimentConfig carries the experiment-wide knobs for the paper's
// tables and figures: master seed, superblue scale divisor, ISCAS subset,
// and simulation depth.
type ExperimentConfig = report.Config

// Table is a rendered experiment result: a title, a header row, data rows,
// and footnotes. Render formats it for terminals.
type Table = report.Table

// PPARow is one design's PPA accounting from Fig6PPA.
type PPARow = report.PPARow

// Experiment names accepted by RunExperiment, in the paper's order.
var experimentNames = []string{
	"table1", "table2", "table3", "table4", "table5", "table6",
	"fig5", "fig6", "ppa", "ablation",
}

// Experiments lists the table-shaped experiments runnable with
// RunExperiment. Fig. 4 is a CSV series, not a table, so it has its own
// entry point, Fig4CSV.
func Experiments() []string {
	return append([]string(nil), experimentNames...)
}

// RunExperiment regenerates one of the paper's tables or figures by name.
// fig5's series design and ablation's benchmark/budgets use the same
// defaults as cmd/smbench; use Fig5 or AblationSwapBudget directly for
// control over them.
func RunExperiment(name string, cfg ExperimentConfig) (*Table, error) {
	switch name {
	case "table1":
		return report.Table1(cfg)
	case "table2":
		return report.Table2(cfg)
	case "table3":
		return report.Table3(cfg)
	case "table4":
		return report.Table4(cfg)
	case "table5":
		return report.Table5(cfg)
	case "table6":
		return report.Table6(cfg)
	case "fig5":
		return report.Fig5("superblue18", cfg)
	case "fig6":
		t, _, err := report.Fig6PPA(cfg)
		return t, err
	case "ppa":
		return report.SuperbluePPA(cfg)
	case "ablation":
		return report.AblationSwapBudget("c880", []int{4, 8, 16, 32, 64}, cfg)
	default:
		return nil, fmt.Errorf("splitmfg: unknown experiment %q (have %v)", name, experimentNames)
	}
}

// Fig4CSV renders the Fig. 4 per-connection distance series for one
// superblue design as CSV, one row per randomized connection of each
// variant.
func Fig4CSV(design string, cfg ExperimentConfig) (string, error) {
	return report.Fig4CSV(design, cfg)
}

// Fig5 renders the Fig. 5 wirelength-by-layer table for one superblue
// design: the percent of each variant's randomized-net wirelength in each
// metal layer.
func Fig5(design string, cfg ExperimentConfig) (*Table, error) {
	return report.Fig5(design, cfg)
}

// Fig6PPA regenerates the Fig. 6 PPA comparison, returning both the
// rendered table and the raw rows.
func Fig6PPA(cfg ExperimentConfig) (*Table, []PPARow, error) {
	return report.Fig6PPA(cfg)
}

// AblationSwapBudget sweeps the randomization swap budget on one benchmark.
func AblationSwapBudget(benchmark string, budgets []int, cfg ExperimentConfig) (*Table, error) {
	return report.AblationSwapBudget(benchmark, budgets, cfg)
}
