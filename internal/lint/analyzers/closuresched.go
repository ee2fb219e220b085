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
// The same holds for processes where spawns scale with message count:
// in internal/coherence and internal/mesh a literal passed to
// Engine.Spawn allocates a closure per message, and Engine.SpawnBody
// with a typed argument spawns without one. Start-up spawns of
// long-lived processes (machine, core, snoop) stay legal.
var ClosureSched = &analysis.Analyzer{
	Name: "closuresched",
	Doc: "hot-path packages must not schedule per-event closures via " +
		"Engine.At/After literals (use AtSink/AfterSink) nor spawn " +
		"per-message ones via Engine.Spawn in coherence/mesh (use SpawnBody)",
	Run: runClosureSched,
}

// spawnScoped reports whether the Spawn rule applies to a package: the
// ones that spawn a process per delivered message. Matched on the last
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
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			var msg string
			switch sel.Sel.Name {
			case "At", "After":
				msg = "closure literal scheduled via Engine.%s allocates per event on a hot path: " +
					"use a typed event (Engine.AtSink/AfterSink with an EventSink)"
			case "Spawn":
				if !spawns {
					return true
				}
				msg = "closure literal spawned via Engine.%s allocates per message on a hot path: " +
					"use Engine.SpawnBody with a typed argument"
			default:
				return true
			}
			if !isEngineMethod(pass, sel) {
				return true
			}
			for _, arg := range call.Args {
				if _, isLit := arg.(*ast.FuncLit); isLit {
					pass.Reportf(arg.Pos(), msg, sel.Sel.Name)
				}
			}
			return true
		})
	}
	return nil, nil
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
