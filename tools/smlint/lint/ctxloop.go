package lint

import (
	"go/ast"
	"go/types"
)

// CtxLoop flags unbounded `for` loops in solver code that cannot observe
// context cancellation.
//
// Motivating bug (PR 4 class): the MCMF augmenting-path loop — thousands
// of Dijkstra sweeps on a full-size superblue solve — ran to completion
// after the caller's context was canceled, pinning a scheduler slot for
// minutes. Every potentially long-running solver loop must check
// ctx.Err()/ctx.Done() (directly, or by calling into code that takes the
// context) at least once per iteration; a loop with a proven iteration
// bound carries //smlint:bounded <why>.
//
// A loop counts as unbounded when it has no condition at all (`for {`),
// or when it is condition-only (no init/post clause) and the condition
// either contains a call — `for h.Len() > 0`, `for len(queue) > 0`, the
// A*/BFS frontier shape — or is a bare boolean flag (`for improved`).
// Three-clause counter loops (`for i := 0; i < len(a); i++`) are bounded
// by construction and never flagged. An inner loop is satisfied by a
// cancellation check in an enclosing loop of the same function: the
// enclosing per-iteration check bounds staleness to one inner sweep,
// which is exactly the PR 4 fix's shape (mcmf.run checks once per
// Dijkstra sweep, not inside the sweep or its blocking flow).
var CtxLoop = &Analyzer{
	Name: "ctxloop",
	Doc: "unbounded solver loop with no cancellation check\n\n" +
		"Long solves must stop promptly when their context is canceled; every\n" +
		"unbounded loop needs a ctx.Err()/ctx.Done() check in its own body or\n" +
		"an enclosing loop's body, or a //smlint:bounded <why> annotation.",
	Packages: []string{"internal/route", "internal/place", "internal/attack"},
	Run:      runCtxLoop,
}

func runCtxLoop(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLoops(pass, fd.Body, false)
		}
	}
}

// checkLoops walks stmts; enclosingChecked is true when an enclosing for
// loop in this function performs a cancellation check each iteration.
func checkLoops(pass *Pass, n ast.Node, enclosingChecked bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch loop := m.(type) {
		case *ast.FuncLit:
			// A nested closure starts fresh: an enclosing loop's check does
			// not run while the closure's own loops spin.
			checkLoops(pass, loop.Body, false)
			return false
		case *ast.ForStmt:
			checked := enclosingChecked || hasCtxCheck(pass, loop.Body)
			if unboundedFor(loop) && !checked && !pass.Escaped(loop.For, "bounded") {
				pass.Reportf(loop.For, "unbounded loop in solver code has no cancellation check: add a ctx.Err()/ctx.Done() check per iteration, or annotate //smlint:bounded <why>")
			}
			checkLoops(pass, loop.Body, checked)
			return false
		case *ast.RangeStmt:
			// Ranges are bounded; still propagate any check they perform.
			checkLoops(pass, loop.Body, enclosingChecked || hasCtxCheck(pass, loop.Body))
			return false
		}
		return true
	})
}

// unboundedFor reports whether the loop's shape cannot be proven to
// terminate by local inspection: no condition, or a condition-only loop
// whose condition re-evaluates mutable state (a call such as h.Len() or
// len(queue)) or a bare boolean flag.
func unboundedFor(loop *ast.ForStmt) bool {
	if loop.Cond == nil {
		return true
	}
	if loop.Init != nil || loop.Post != nil {
		return false // three-clause counter loop
	}
	if _, isFlag := ast.Unparen(loop.Cond).(*ast.Ident); isFlag {
		return true
	}
	hasCall := false
	ast.Inspect(loop.Cond, func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			hasCall = true
		}
		return !hasCall
	})
	return hasCall
}

// hasCtxCheck reports whether the subtree observes a context: a
// Done/Err/Deadline call on a context.Context value, or any call passing
// a context.Context argument (delegating the check to the callee).
func hasCtxCheck(pass *Pass, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Err", "Done", "Deadline":
				if tv, ok := pass.Info.Types[sel.X]; ok && isContext(tv.Type) {
					found = true
					return false
				}
			}
		}
		for _, arg := range call.Args {
			if tv, ok := pass.Info.Types[arg]; ok && isContext(tv.Type) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func isContext(t types.Type) bool { return TypeIs(t, "context", "Context") }
