package lint

import (
	"go/ast"
	"go/types"
)

// MapIter flags `range` over a map in report-producing packages,
// including the router and layout packages whose layouts every report
// is built on.
//
// Motivating bug (PR 3 class): aggregation loops in the report path
// iterated Go maps directly, so float accumulation happened in a
// different order per process and the golden byte pins differed across
// runs. Every map whose contents can reach a report must be iterated
// through a sorted key slice; a site where order provably cannot reach
// output carries //smlint:ordered <why>.
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc: "range over a map in a report-producing package\n\n" +
		"Map iteration order is randomized per process; any map range on a\n" +
		"path that feeds report bytes is a nondeterminism bug. Iterate a\n" +
		"sorted key slice instead, or annotate //smlint:ordered <why> when\n" +
		"the loop's effect is provably order-independent.",
	Packages: []string{"internal/flow", "internal/report", "internal/metrics", "internal/route", "internal/layout", "@root"},
	Run:      runMapIter,
}

func runMapIter(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.Info.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if pass.Escaped(rs.For, "ordered") {
				return true
			}
			pass.Reportf(rs.For, "range over map %s in report-producing code: iterate sorted keys, or annotate //smlint:ordered <why> if order cannot reach output", types.TypeString(tv.Type, types.RelativeTo(pass.Types)))
			return true
		})
	}
}
