package analyzers

import (
	"go/ast"
	"go/types"
	"path"
	"strings"

	"coma/internal/lint/analysis"
)

// ClosureSched reports two per-message costs in internal/coherence and
// internal/mesh, the packages whose work scales with message count.
//
// Every Engine.Spawn call there is flagged, closure or not: a process
// costs a coroutine of about ten heap objects plus a switch each time
// it blocks and resumes, and neither package needs one. A message
// handler runs in event context on the engine's events (Engine.At and
// After with an EventSink), taking its node's controller with
// Resource.AcquireSink. Start-up spawns of long-lived processes
// (machine, core, snoop) are out of scope.
//
// Every sim.NewFuture call there is flagged too: request and reply
// futures scale with message count, and a sim.FuturePool hands them out
// allocation-free under the ownership rule of DESIGN.md §10.3.
var ClosureSched = &analysis.Analyzer{
	Name: "closuresched",
	Doc: "coherence/mesh must not spawn processes via Engine.Spawn nor " +
		"allocate reply futures via sim.NewFuture (use sim.FuturePool)",
	Run: runClosureSched,
}

// ClosureSchedScope reports whether the analyzer applies to a package:
// the ones that handle and send messages. Matched on the last path
// element so analyzer fixtures can stand in for them.
func ClosureSchedScope(pkgPath string) bool {
	switch path.Base(pkgPath) {
	case "coherence", "mesh":
		return true
	}
	return false
}

func runClosureSched(pass *analysis.Pass) (interface{}, error) {
	if !ClosureSchedScope(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isSimNewFuture(pass, call.Fun) {
				pass.Reportf(call.Pos(), "sim.NewFuture allocates a future per request on a hot path: "+
					"take it from a sim.FuturePool and Put it back after Await")
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Spawn" && isEngineMethod(pass, sel) {
				pass.Reportf(call.Pos(), "Engine.Spawn starts a process in a package whose work scales "+
					"with message count: run the work in event context (Engine.At/After "+
					"with an EventSink, Resource.AcquireSink for a controller)")
			}
			return true
		})
	}
	return nil, nil
}

// isSimNewFuture reports whether fun names the sim.NewFuture function.
// NewFuture takes no arguments to infer its type from, so a call always
// spells the type argument: sim.NewFuture[T]().
func isSimNewFuture(pass *analysis.Pass, fun ast.Expr) bool {
	ix, ok := fun.(*ast.IndexExpr)
	if !ok {
		return false
	}
	sel, ok := ix.X.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.Name() == "NewFuture" && fn.Pkg() != nil &&
		strings.HasSuffix(fn.Pkg().Path(), "internal/sim")
}

// isEngineMethod reports whether the selected call resolves to a method
// on *sim.Engine.
func isEngineMethod(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	obj, ok := pass.TypesInfo.Uses[sel.Sel]
	if !ok {
		return false
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type().String()
	return strings.HasSuffix(recv, "sim.Engine")
}
