// Command comamodel checks the Extended Coherence Protocol's
// implementation against its specification from three independent
// directions and diffs them pairwise:
//
//	comamodel extract     static code-derived transition tables (go/ast
//	                      dataflow over the mesh and bus engines) vs the
//	                      spec table proto.ECPTransitions
//	comamodel check       exhaustive BFS model checking of the abstract
//	                      ECP configuration: safety invariants on every
//	                      reachable state, reachable edges vs the spec
//	comamodel diff        the three-way gate: spec vs code vs model, plus
//	                      optional runtime coverage from comasim
//	                      -trace-out JSONL logs
//
// Every subcommand exits 0 when the directions agree, 1 on any drift or
// invariant violation, and 2 on usage errors — so CI can use it as a
// conformance gate.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"coma/internal/model"
	"coma/internal/obs"
	"coma/internal/obs/txnview"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		return usage(stderr)
	}
	switch args[0] {
	case "extract":
		return extract(args[1:], stdout, stderr)
	case "check":
		return check(args[1:], stdout, stderr)
	case "diff":
		return diff(args[1:], stdout, stderr)
	default:
		return usage(stderr)
	}
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, `usage:
  comamodel extract [-C dir] [-engine mesh|bus|all] [-v]
  comamodel check [-items n] [-nodes n] [-max-states n] [-v]
  comamodel diff [-C dir] [-items n] [-nodes n] [-require-full-coverage] [events.jsonl ...]

exit status: 0 conformant, 1 drift or invariant violation, 2 usage.`)
	return 2
}

// engines resolves the -engine flag value.
func engines(sel string, stderr io.Writer) ([]string, bool) {
	switch sel {
	case "all":
		return []string{model.EngineMesh, model.EngineBus}, true
	case model.EngineMesh, model.EngineBus:
		return []string{sel}, true
	}
	fmt.Fprintf(stderr, "comamodel: unknown engine %q (mesh|bus|all)\n", sel)
	return nil, false
}

// extractTables runs the static pass for the selected engines plus the
// attraction-memory helper audit, reporting drift vs the spec table.
// Returns the per-engine tables and whether everything is conformant.
func extractTables(dir string, sel []string, verbose bool, stdout, stderr io.Writer) (map[string]*model.Table, bool) {
	ok := true
	spec := model.SpecTable()
	tables := make(map[string]*model.Table)

	if bad, err := model.AuditAM(dir); err != nil {
		fmt.Fprintf(stderr, "comamodel: am audit: %v\n", err)
		ok = false
	} else if len(bad) > 0 {
		ok = false
		fmt.Fprintf(stdout, "am audit: %d unaudited slot-state writes\n", len(bad))
		for _, v := range bad {
			fmt.Fprintf(stdout, "  %s\n", v)
		}
	} else {
		fmt.Fprintln(stdout, "am audit: all slot-state writes flow through the audited helpers")
	}

	for _, eng := range sel {
		res, err := model.Extract(dir, eng)
		if err != nil {
			fmt.Fprintf(stderr, "comamodel: extract %s: %v\n", eng, err)
			ok = false
			continue
		}
		tables[eng] = res.Table
		annotated := 0
		for _, s := range res.Sites {
			if s.Annotated {
				annotated++
			}
		}
		fmt.Fprintf(stdout, "%s: %d mutation sites (%d statically resolved, %d annotated), %d edges\n",
			eng, len(res.Sites), len(res.Sites)-annotated, annotated, res.Table.Len())
		for _, e := range res.Errors {
			ok = false
			fmt.Fprintf(stdout, "  unresolved: %s\n", e)
		}
		if verbose {
			res.Table.Write(stdout)
		}
		d := model.Diff(spec, res.Table)
		if d.Clean() {
			fmt.Fprintf(stdout, "  spec vs %s: in agreement (%d edges)\n", eng, spec.Len())
		} else {
			ok = false
			fmt.Fprintf(stdout, "  spec vs %s: DRIFT\n", eng)
			d.Write(stdout, spec, res.Table)
		}
	}
	return tables, ok
}

func extract(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("extract", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "module directory to analyse")
	eng := fs.String("engine", "all", "engine to extract: mesh, bus or all")
	verbose := fs.Bool("v", false, "print the full code-derived tables")
	if fs.Parse(args) != nil {
		return 2
	}
	sel, ok := engines(*eng, stderr)
	if !ok {
		return 2
	}
	if _, ok := extractTables(*dir, sel, *verbose, stdout, stderr); !ok {
		return 1
	}
	return 0
}

// runCheck explores the abstract configuration and reports the result;
// conformance additionally requires edge-exact agreement with the spec
// when the configuration is large enough to reach it (>= 4 nodes).
func runCheck(cfg model.CheckConfig, verbose bool, stdout, stderr io.Writer) (*model.CheckResult, bool) {
	res, err := model.Check(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "comamodel: check: %v\n", err)
		return nil, false
	}
	ok := true
	if verbose {
		res.Write(stdout)
	} else {
		fmt.Fprintf(stdout, "model: %d items x %d nodes: %d states, %d transitions, %d/%d edges reachable\n",
			cfg.Items, cfg.Nodes, res.States, res.Transitions, res.Edges.Len(), model.SpecTable().Len())
		if res.CreateStuck > 0 {
			fmt.Fprintf(stdout, "  create-phase dead ends: %d (the ECP needs >= 4 nodes)\n", res.CreateStuck)
		}
	}
	if len(res.Violations) > 0 {
		ok = false
		for _, v := range res.Violations {
			fmt.Fprintf(stdout, "  VIOLATION: %s\n    state: %s\n", v.Invariant, v.State)
			for _, step := range v.Trace {
				fmt.Fprintf(stdout, "    via: %s\n", step)
			}
		}
	}
	if cfg.Nodes >= 4 {
		d := model.Diff(model.SpecTable(), res.Edges)
		if d.Clean() {
			fmt.Fprintf(stdout, "  spec vs model: in agreement (%d edges)\n", res.Edges.Len())
		} else {
			ok = false
			fmt.Fprintf(stdout, "  spec vs model: DRIFT\n")
			d.Write(stdout, model.SpecTable(), res.Edges)
		}
	}
	return res, ok
}

func check(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	fs.SetOutput(stderr)
	items := fs.Int("items", 1, "abstract items (every edge is a per-item property)")
	nodes := fs.Int("nodes", 4, "abstract nodes (>= 4 reaches the full edge set)")
	maxStates := fs.Int("max-states", 0, "abort beyond this many reachable states (0 = default)")
	verbose := fs.Bool("v", false, "print the reachable edge table and violation traces")
	if fs.Parse(args) != nil {
		return 2
	}
	cfg := model.CheckConfig{Items: *items, Nodes: *nodes, MaxStates: *maxStates}
	if _, ok := runCheck(cfg, *verbose, stdout, stderr); !ok {
		return 1
	}
	return 0
}

// runtimeTable unions the exercised protocol edges of comasim JSONL
// event logs into a Table, via the same replay the trace checker uses:
// each log streams line by line through a txnview.Fold, so no event
// slice is held.
func runtimeTable(paths []string, stdout, stderr io.Writer) (*model.Table, bool) {
	t := model.NewTable("runtime")
	ok := true
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(stderr, "comamodel: %v\n", err)
			return nil, false
		}
		fold := txnview.NewFold()
		err = obs.ScanJSONL(f, func(ev obs.Event) error {
			fold.Step(ev)
			return nil
		})
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "comamodel: %s: %v\n", path, err)
			return nil, false
		}
		rep := fold.CoverageReport()
		for _, e := range rep.Exercised {
			t.Add(e.Edge, path)
		}
		for _, e := range rep.Unexpected {
			ok = false
			fmt.Fprintf(stdout, "  %s: UNEXPECTED runtime edge %v -> %v (%d times)\n",
				path, e.From, e.To, e.Count)
			t.Add(e.Edge, path)
		}
	}
	return t, ok
}

func diff(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "module directory to analyse")
	items := fs.Int("items", 1, "abstract items for the model leg")
	nodes := fs.Int("nodes", 4, "abstract nodes for the model leg")
	requireFull := fs.Bool("require-full-coverage", false,
		"fail unless the runtime traces exercise every spec edge")
	if fs.Parse(args) != nil {
		return 2
	}
	ok := true
	spec := model.SpecTable()
	fmt.Fprintf(stdout, "spec: %d edges (proto.ECPTransitions)\n", spec.Len())

	// Leg 1: spec vs code (both engines, plus the helper audit).
	if _, legOK := extractTables(*dir, []string{model.EngineMesh, model.EngineBus}, false, stdout, stderr); !legOK {
		ok = false
	}

	// Leg 2: spec vs the model checker's reachable edges.
	if _, legOK := runCheck(model.CheckConfig{Items: *items, Nodes: *nodes}, false, stdout, stderr); !legOK {
		ok = false
	}

	// Leg 3 (optional): spec vs runtime coverage.
	if paths := fs.Args(); len(paths) > 0 {
		rt, legOK := runtimeTable(paths, stdout, stderr)
		if rt == nil {
			return 2
		}
		if !legOK {
			ok = false
		}
		d := model.Diff(spec, rt)
		fmt.Fprintf(stdout, "runtime: %d/%d edges exercised across %d trace(s)\n",
			rt.Len(), spec.Len(), len(paths))
		if len(d.OnlyB) > 0 {
			ok = false
			fmt.Fprintf(stdout, "  spec vs runtime: DRIFT\n")
		}
		for _, e := range d.OnlyB {
			fmt.Fprintf(stdout, "  runtime-only edge: %v\n", e)
		}
		for _, e := range d.OnlyA {
			fmt.Fprintf(stdout, "  unexercised: %-13v -> %v\n", e.From, e.To)
		}
		if *requireFull && len(d.OnlyA) > 0 {
			ok = false
			fmt.Fprintf(stdout, "  full coverage required: %d spec edges unexercised\n", len(d.OnlyA))
		}
	}

	if !ok {
		fmt.Fprintln(stdout, "comamodel: DRIFT detected")
		return 1
	}
	fmt.Fprintln(stdout, "comamodel: spec, code and model agree")
	return 0
}
