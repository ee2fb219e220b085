// Command comafault demonstrates and validates the fault-tolerance path:
// it runs an ECP machine under a failure schedule (scripted or an
// exponential MTBF model), with the value oracle and the recovery-data
// invariant checker enabled, and reports every recovery the machine
// performed.
//
//	comafault -app mp3d -scale 0.01 -hz 100 -mtbf 5000000
//	comafault -app water -scale 0.01 -hz 200 -fail 400000:3 -fail 800000:7:perm
//
// With -edges it instead runs the staged protocol-edge suite
// (internal/fault/edges): six deterministic choreographies that
// together exercise every edge of the ECP specification table. The
// report goes to stdout, -trace-dir writes one JSONL trace per scenario
// (comamodel diff consumes them as the runtime leg of the conformance
// gate), and the exit status is 0 only on full coverage.
//
//	comafault -edges -trace-dir /tmp/edges
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"coma"
	"coma/internal/config"
	"coma/internal/fault/edges"
	"coma/internal/machine"
	"coma/internal/obs"
	"coma/internal/proto"
)

func main() {
	var (
		appName = flag.String("app", "mp3d", "workload preset")
		nodes   = flag.Int("nodes", 16, "number of processing nodes")
		hz      = flag.Float64("hz", 100, "recovery points per second")
		scale   = flag.Float64("scale", 0.01, "instruction-budget scale")
		seed    = flag.Uint64("seed", 1, "simulation seed")
		mtbf    = flag.Int64("mtbf", 0, "machine MTBF in cycles; draws an exponential failure schedule")
		permPct = flag.Float64("perm", 0, "fraction of MTBF failures that are permanent (0..1)")
		horizon = flag.Int64("horizon", 0, "failure-schedule horizon in cycles (default: probed run length)")
	)
	var (
		edgeSuite = flag.Bool("edges", false, "run the protocol-edge scenario suite instead of a single machine")
		traceDir  = flag.String("trace-dir", "", "with -edges: write one JSONL trace per scenario into this directory")
	)
	var fails []string
	flag.Func("fail", "scripted failure, cycle:node[:perm]; repeatable", func(v string) error {
		fails = append(fails, v)
		return nil
	})
	flag.Parse()

	if *edgeSuite {
		os.Exit(runEdgeSuite(*traceDir))
	}

	app, ok := coma.AppByName(*appName)
	if !ok {
		fail("unknown app %q", *appName)
	}
	base := coma.Config{
		Nodes:        *nodes,
		Protocol:     coma.ECP,
		App:          app,
		Scale:        *scale,
		Seed:         *seed,
		CheckpointHz: *hz,
		Oracle:       true,
		Invariants:   true,
	}

	switch {
	case *nodes < 1:
		fail("-nodes = %d, want at least 1", *nodes)
	case *scale < 0:
		fail("-scale = %g, want a non-negative budget scale", *scale)
	case *hz < 0:
		fail("-hz = %g, want a non-negative frequency", *hz)
	case *mtbf < 0:
		fail("-mtbf = %d, want a non-negative cycle count", *mtbf)
	case *horizon < 0:
		fail("-horizon = %d, want a non-negative cycle count", *horizon)
	case *permPct < 0 || *permPct > 1:
		fail("-perm = %g, want a fraction in [0,1]", *permPct)
	}
	// A scripted schedule and a drawn one answer different questions
	// (deterministic reproduction vs a stochastic reliability model);
	// merging them silently changed the meaning of both, so the
	// combination is refused.
	if *mtbf > 0 && len(fails) > 0 {
		fail("-mtbf and -fail are mutually exclusive: use a scripted schedule or a drawn one, not both")
	}
	if err := machine.CheckRecovery(coma.ECP, *nodes, 0, *hz, len(fails) > 0 || *mtbf > 0); err != nil {
		fail("%v", err)
	}
	var failures coma.FaultPlan
	for _, v := range fails {
		e, err := config.ParseFailure(v)
		if err != nil {
			fail("%v", err)
		}
		failures = append(failures, e)
	}
	if *mtbf > 0 {
		span := *horizon
		if span == 0 {
			probe := base
			probe.Protocol = coma.Standard
			probe.CheckpointHz = 0
			probe.Invariants = false
			res, err := coma.Run(probe)
			if err != nil {
				fmt.Fprintf(os.Stderr, "comafault: probing run length: %v\n", err)
				os.Exit(1)
			}
			span = res.Cycles
			fmt.Printf("probed failure-free run length: %d cycles\n", span)
		}
		failures = coma.ExponentialFailures(*seed, *nodes, *mtbf, span, *permPct)
		fmt.Printf("drawn %d failures from MTBF %d cycles (%d permanent)\n",
			len(failures), *mtbf, failures.PermanentCount())
	}
	// A schedule passes the machine's own check before it is printed
	// or run, so a bad one exits 2 like any other invalid input.
	if err := failures.Validate(*nodes); err != nil {
		fail("%v", err)
	}
	base.Failures = failures
	for _, f := range failures {
		kind := "transient"
		if f.Permanent {
			kind = "permanent"
		}
		fmt.Printf("  scheduled: node %d fails (%s) at cycle %d\n", f.Node, kind, f.At)
	}

	res, err := coma.Run(base)
	switch {
	case errors.Is(err, coma.ErrDataLoss):
		fmt.Printf("\nUNRECOVERABLE: %v\n", err)
		fmt.Println("(overlapping failures destroyed both copies of a recovery pair —")
		fmt.Println(" the two-copy scheme tolerates multiple transient and single")
		fmt.Println(" permanent failures, not simultaneous ones)")
		os.Exit(1)
	case err != nil:
		fmt.Fprintf(os.Stderr, "comafault: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("\ncompleted in %d cycles (%.1f ms simulated)\n", res.Cycles, 1e3*res.Seconds(res.Cycles))
	fmt.Printf("  recovery points established: %d (aborted: %d)\n", res.Ckpt.Established, res.Ckpt.Aborted)
	fmt.Printf("  rollbacks performed:         %d\n", res.Ckpt.Recoveries)
	total := res.Total()
	fmt.Printf("  reconfiguration injections:  %d\n", total.Injections[proto.InjectReconfigure])
	fmt.Println("  value oracle:                every read matched the sequentially-consistent value")
	fmt.Println("  invariants:                  recovery pairs complete at every commit and rollback")
}

// fail reports invalid input and exits 2, before anything has run.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "comafault: "+format+"\n", args...)
	os.Exit(2)
}

// runEdgeSuite executes the staged edge scenarios, prints the coverage
// report, and optionally persists each scenario's trace as JSONL.
func runEdgeSuite(traceDir string) int {
	rep, err := edges.RunSuite()
	if err != nil {
		fmt.Fprintf(os.Stderr, "comafault: edge suite: %v\n", err)
		return 1
	}
	rep.Write(os.Stdout)
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "comafault: %v\n", err)
			return 1
		}
		for _, res := range rep.Results {
			path := filepath.Join(traceDir, res.Scenario.Name+".jsonl")
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "comafault: %v\n", err)
				return 1
			}
			err = obs.WriteJSONL(f, res.Events)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "comafault: writing %s: %v\n", path, err)
				return 1
			}
			fmt.Printf("  trace: %s (%d events)\n", path, len(res.Events))
		}
	}
	if !rep.Full() {
		fmt.Println("edge suite: INCOMPLETE coverage")
		return 1
	}
	fmt.Println("edge suite: full specification coverage")
	return 0
}
