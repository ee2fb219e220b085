package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"coma/internal/lint/analysis"
)

// SimBlocking reports code in simulated-process packages that blocks or
// forks through the Go runtime instead of the internal/sim primitives.
// A raw channel receive, select, WaitGroup.Wait or `go` statement stalls
// or forks the real goroutine without advancing the simulated clock and
// escapes the engine's single dispatch loop; simulated processes must
// block only via Process.Wait/Park, Future.Await, Resource.Acquire and
// friends, which yield to that loop.
var SimBlocking = &analysis.Analyzer{
	Name: "simblocking",
	Doc: "simulated processes must block via internal/sim primitives, " +
		"not raw channels, sync, or goroutines",
	Run: runSimBlocking,
}

// SimBlockingScope reports whether the analyzer applies to a package:
// everything that executes inside simulated processes, plus the
// experiment campaign and serving subtrees (render and API-shape code
// must not grow ad-hoc blocking; pooled execution lives behind the
// allowlisted runner, and the allowlisted daemon/client packages carry
// their own justified concurrency). internal/sim itself is exempt (it
// implements the primitives), as are the cmd/ and
// examples/ mains, which run outside the engine, and
// ConcurrencyAllowlist packages.
func SimBlockingScope(pkgPath string) bool {
	if allowlisted(pkgPath) {
		return false
	}
	for _, suffix := range []string{
		"internal/coherence", "internal/core", "internal/node",
		"internal/machine", "internal/snoop", "internal/workload",
		"internal/mesh", "internal/am", "internal/cache", "internal/fault",
	} {
		if strings.HasSuffix(pkgPath, suffix) {
			return true
		}
	}
	return inSubtree(pkgPath, "internal/experiments") ||
		inSubtree(pkgPath, "internal/server") ||
		inSubtree(pkgPath, "internal/cluster")
}

func runSimBlocking(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					pass.Reportf(n.Pos(),
						"raw channel receive blocks the real goroutine: use sim primitives "+
							"(Process.Wait/Park, Future.Await)")
				}
			case *ast.SendStmt:
				pass.Reportf(n.Pos(),
					"raw channel send can block the real goroutine: use sim primitives")
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(),
					"select blocks on real channels: use sim primitives")
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"raw goroutine escapes the engine's wake/yield handshake: use Engine.Spawn")
			case *ast.CallExpr:
				checkSyncBlocking(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

// checkSyncBlocking flags blocking calls into package sync and time.
func checkSyncBlocking(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel]
	if !ok {
		return
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "sync":
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return
		}
		recv := sig.Recv().Type().String()
		switch {
		case strings.HasSuffix(recv, "sync.WaitGroup") && fn.Name() == "Wait":
			pass.Reportf(call.Pos(),
				"sync.WaitGroup.Wait blocks outside simulated time: use sim.Barrier or Future.Await")
		case strings.HasSuffix(recv, "sync.Cond") && fn.Name() == "Wait":
			pass.Reportf(call.Pos(),
				"sync.Cond.Wait blocks outside simulated time: use sim primitives")
		}
	case "time":
		if fn.Name() == "Sleep" {
			pass.Reportf(call.Pos(),
				"time.Sleep stalls the real goroutine: use Process.Wait(cycles)")
		}
	}
}
