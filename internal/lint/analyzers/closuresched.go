package analyzers

import (
	"go/ast"
	"go/types"
	"path"
	"strings"

	"coma/internal/lint/analysis"
)

// ClosureSched reports function literals passed to the sim.Engine
// closure-scheduling entry points (At, After) in hot-path engine
// packages. Every such literal allocates one closure per scheduled
// event; the kernel's typed-event scheme (Engine.AtSink/AfterSink with
// an EventSink payload, or the built-in process-wake event) dispatches
// the same work allocation-free. Named function values stay legal — the
// rule targets the per-event literal, the allocation that scales with
// event count, not the one-time closure of a self-rescheduling ticker.
//
// In internal/coherence and internal/mesh, whose work scales with
// message count, every Engine.Spawn call is flagged, closure or not: a
// process costs a coroutine of about ten heap objects plus a switch
// each time it blocks and resumes, and neither package needs one. A message handler runs in event context on typed
// events, taking its node's controller with Resource.AcquireSink.
// Start-up spawns of long-lived processes (machine, core, snoop) stay
// legal.
//
// In the same two packages every sim.NewFuture call is flagged: request
// and reply futures there scale with message count, and a
// sim.FuturePool hands them out allocation-free under the ownership
// rule of DESIGN.md §10.3.
var ClosureSched = &analysis.Analyzer{
	Name: "closuresched",
	Doc: "hot-path packages must not schedule per-event closures via " +
		"Engine.At/After literals (use AtSink/AfterSink), nor spawn " +
		"processes via Engine.Spawn or allocate reply futures via " +
		"sim.NewFuture (use sim.FuturePool) in coherence/mesh",
	Run: runClosureSched,
}

// spawnScoped reports whether the Spawn and NewFuture rules apply to a
// package: the ones that handle and send messages. Matched on the last
// path element so analyzer fixtures can stand in for them.
func spawnScoped(pkgPath string) bool {
	switch path.Base(pkgPath) {
	case "coherence", "mesh":
		return true
	}
	return false
}

// ClosureSchedScope reports whether the analyzer applies to a package:
// the packages whose event traffic scales with simulated work (every
// mesh delivery, coherence transaction and checkpoint timer flows
// through them). internal/sim itself is exempt — it implements both the
// closure and the typed paths — as is everything outside the simulation
// engines (cmd mains, offline analysis, serving).
func ClosureSchedScope(pkgPath string) bool {
	if allowlisted(pkgPath) {
		return false
	}
	for _, suffix := range []string{
		"internal/mesh", "internal/coherence", "internal/core",
		"internal/machine", "internal/node", "internal/snoop",
		"internal/cache", "internal/fault", "internal/workload",
	} {
		if strings.HasSuffix(pkgPath, suffix) {
			return true
		}
	}
	return false
}

func runClosureSched(pass *analysis.Pass) (interface{}, error) {
	spawns := spawnScoped(pass.Pkg.Path())
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if spawns && isSimNewFuture(pass, call.Fun) {
				pass.Reportf(call.Pos(), "sim.NewFuture allocates a future per request on a hot path: "+
					"take it from a sim.FuturePool and Put it back after Await")
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch name := sel.Sel.Name; {
			case name == "Spawn" && spawns && isEngineMethod(pass, sel):
				pass.Reportf(call.Pos(), "Engine.Spawn starts a process in a package whose work scales "+
					"with message count: run the work in event context (typed events, "+
					"Resource.AcquireSink for a controller)")
			case (name == "At" || name == "After") && isEngineMethod(pass, sel):
				for _, arg := range call.Args {
					if _, isLit := arg.(*ast.FuncLit); isLit {
						pass.Reportf(arg.Pos(), "closure literal scheduled via Engine.%s allocates per event "+
							"on a hot path: use a typed event (Engine.AtSink/AfterSink with an EventSink)",
							name)
					}
				}
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
