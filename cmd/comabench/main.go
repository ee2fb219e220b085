// Command comabench regenerates the paper's evaluation: every table and
// figure (Tables 1–3, Figures 3–11), printed as aligned text and
// optionally written as CSV files for plotting.
//
// The campaign's distinct simulations are planned up front and executed
// on a bounded worker pool (-workers, default GOMAXPROCS); tables render
// in paper order as their runs complete. Output is byte-identical for
// every worker count.
//
//	comabench                      # quick campaign (~minutes)
//	comabench -params full         # paper-scale budgets and 5-400/s sweep
//	comabench -only fig3,fig6      # a subset
//	comabench -csv out/            # also write out/<id>.csv
//	comabench -workers 1           # strictly serial execution
//
// Performance is measured by the comaperf benchmark (bench/), not here;
// for a CPU profile of a campaign use
// `go test -run '^$' -bench Fig3 -cpuprofile cpu.out .` at the module root.
//
// With -remote, every simulation executes on a comad daemon (README
// §Serving) instead of in-process; the campaign's own scheduling,
// memoisation and rendering are unchanged, and repeated campaigns
// against a warm daemon resolve entirely from its result cache.
//
//	comabench -remote http://localhost:7700 -only fig6
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"coma"
	"coma/internal/config"
	"coma/internal/server"
	"coma/internal/server/client"
	"coma/internal/stats"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		params  = flag.String("params", "quick", "campaign scale: bench, quick or full")
		only    = flag.String("only", "", "comma-separated subset: table1..table3, fig3..fig11, ablation")
		csvDir  = flag.String("csv", "", "directory to write <id>.csv files into")
		nodes   = flag.Int("nodes", 0, "override machine size for the frequency study")
		seed    = flag.Uint64("seed", 0, "override campaign seed")
		workers = flag.Int("workers", 0, "max simulations in flight (0: GOMAXPROCS, 1: serial)")
		remote  = flag.String("remote", "", "execute simulations on a comad daemon at this base URL")
		verbose = flag.Bool("v", false, "print one line per simulation run")
	)
	flag.Parse()

	var p coma.ExperimentParams
	switch *params {
	case "bench":
		p = coma.BenchExperiments()
	case "quick":
		p = coma.QuickExperiments()
	case "full":
		p = coma.FullExperiments()
	default:
		fmt.Fprintf(os.Stderr, "comabench: unknown params %q\n", *params)
		return 2
	}
	if *nodes > 0 {
		p.Nodes = *nodes
	}
	if *seed > 0 {
		p.Seed = *seed
	}
	p.Workers = *workers
	if *verbose {
		p.Progress = func(msg string) { fmt.Fprintln(os.Stderr, msg) }
	}
	if *remote != "" {
		c := client.New(*remote)
		if _, err := c.Health(context.Background()); err != nil {
			fmt.Fprintf(os.Stderr, "comabench: daemon not reachable: %v\n", err)
			return 1
		}
		p.Remote = func(id config.RunIdentity) (*stats.Run, error) {
			run, _, err := c.Run(context.Background(), server.SpecForIdentity(id))
			return run, err
		}
	}

	suite := coma.NewExperiments(p)
	wanted := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			wanted[id] = true
		}
	}

	type gen struct {
		id string
		fn func() (*coma.ReportTable, error)
	}
	gens := []gen{
		{"table1", suite.Table1}, {"table2", suite.Table2}, {"table3", suite.Table3},
		{"fig3", suite.Fig3}, {"fig4", suite.Fig4}, {"fig5", suite.Fig5},
		{"fig6", suite.Fig6}, {"fig7", suite.Fig7}, {"fig8", suite.Fig8},
		{"fig9", suite.Fig9}, {"fig10", suite.Fig10}, {"fig11", suite.Fig11},
		{"ablation", suite.Ablation},
	}

	// Plan the selected campaign: start every distinct simulation on the
	// worker pool before rendering the first table.
	var selected []string
	for _, g := range gens {
		if len(wanted) == 0 || wanted[g.id] {
			selected = append(selected, g.id)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintln(os.Stderr, "comabench: nothing selected (check -only)")
		return 2
	}
	suite.Plan(selected...)

	for _, g := range gens {
		if len(wanted) > 0 && !wanted[g.id] {
			continue
		}
		t, err := g.fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "comabench: %s: %v\n", g.id, err)
			return 1
		}
		if err := t.Fprint(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "comabench: %v\n", err)
			return 1
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, t); err != nil {
				fmt.Fprintf(os.Stderr, "comabench: %v\n", err)
				return 1
			}
		}
	}
	return 0
}

func writeCSV(dir string, t *coma.ReportTable) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, t.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.CSV(f)
}
