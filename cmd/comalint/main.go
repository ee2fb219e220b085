// Command comalint runs the repository's custom static analyzers
// (multichecker style) over Go package patterns:
//
//	go run ./cmd/comalint ./...
//
// Analyzers (see internal/lint/analyzers and README.md):
//
//	exhaustivestate  switches over internal/proto enum types must cover
//	                 every constant or fail loudly in default
//	determinism      no wall-clock time, no global math/rand, no
//	                 order-sensitive map iteration in the simulator core
//	simblocking      simulated processes block only via internal/sim
//	closuresched     coherence/mesh handle messages in event context:
//	                 no Engine.Spawn, no per-request sim.NewFuture
//	obswallclock     Observer implementations never read the wall clock
//	statetransition  am.Slot state changes go through the AM setters (or
//	                 ForEachAllocated scan callbacks) so the state hook fires
//
// Flags select a subset (-run exhaustivestate,determinism). Exit status
// is 1 if any diagnostic is reported, 2 on operational errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"coma/internal/lint/analysis"
	"coma/internal/lint/analyzers"
	"coma/internal/lint/loader"
)

// checker pairs an analyzer with the package scope it applies to.
type checker struct {
	a     *analysis.Analyzer
	scope func(pkgPath string) bool
}

func everywhere(string) bool { return true }

var checkers = []checker{
	{analyzers.ExhaustiveState, everywhere},
	{analyzers.Determinism, analyzers.DeterminismScope},
	{analyzers.SimBlocking, analyzers.SimBlockingScope},
	{analyzers.ClosureSched, analyzers.ClosureSchedScope},
	{analyzers.ObsWallClock, everywhere},
	{analyzers.StateTransition, analyzers.StateTransitionScope},
}

func main() {
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: comalint [-run names] [packages]\n\nanalyzers:\n")
		for _, c := range checkers {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", c.a.Name, c.a.Doc)
		}
	}
	flag.Parse()

	selected := checkers
	if *run != "" {
		names := make(map[string]bool)
		for _, n := range strings.Split(*run, ",") {
			names[strings.TrimSpace(n)] = true
		}
		selected = nil
		for _, c := range checkers {
			if names[c.a.Name] {
				selected = append(selected, c)
				delete(names, c.a.Name)
			}
		}
		for n := range names {
			fmt.Fprintf(os.Stderr, "comalint: unknown analyzer %q\n", n)
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	moduleDir, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	l := loader.New(moduleDir)
	pkgs, err := l.Load(patterns...)
	if err != nil {
		fatal(err)
	}

	type finding struct {
		pos  string
		line int
		msg  string
	}
	var findings []finding
	for _, pkg := range pkgs {
		if pkg.Info == nil {
			continue // cgo fallback: no syntax to analyze
		}
		for _, c := range selected {
			if !c.scope(pkg.PkgPath) {
				continue
			}
			pass := &analysis.Pass{
				Analyzer:  c.a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			name := c.a.Name
			pass.Report = func(d analysis.Diagnostic) {
				p := pkg.Fset.Position(d.Pos)
				rel, err := filepath.Rel(moduleDir, p.Filename)
				if err != nil {
					rel = p.Filename
				}
				findings = append(findings, finding{
					pos:  fmt.Sprintf("%s:%d:%d", rel, p.Line, p.Column),
					line: p.Line,
					msg:  fmt.Sprintf("%s: %s", name, d.Message),
				})
			}
			if _, err := c.a.Run(pass); err != nil {
				fatal(fmt.Errorf("%s on %s: %v", c.a.Name, pkg.PkgPath, err))
			}
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		if findings[i].pos != findings[j].pos {
			return findings[i].pos < findings[j].pos
		}
		return findings[i].msg < findings[j].msg
	})
	for _, f := range findings {
		fmt.Printf("%s: %s\n", f.pos, f.msg)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "comalint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "comalint:", err)
	os.Exit(2)
}
