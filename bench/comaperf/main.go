// Command comaperf is the repository's benchmark: it measures what it
// costs to compute and to serve the paper's fault-tolerance results,
// end to end and layer by layer, on four workloads run from one
// process.
//
//	go -C bench run ./comaperf -seed 1                 # all workloads
//	go -C bench run ./comaperf -workload sim-ecp -trace 1
//	bash bench/run.sh --workload serve-local --seed 3 --seconds 10 --trace 0
//
// Every number is host time or host memory; simulated statistics are
// outputs it checks, never speeds. Layers are measured only from
// outside: by timing calls into their public functions and by charging
// CPU-profile samples to packages. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	smoke    bool
	runs     int
	jsonOut  string
	spansOut string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("comaperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs.StringVar(&o.workload, "workload", "", "run one workload ("+strings.Join(names, ", ")+"); default all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed every input is derived from")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds per run; sets the round count (1.5 s per round, at least 3)")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics and the tracing overhead")
	fs.BoolVar(&o.smoke, "smoke", false, "scale every workload down to about 2 s")
	fs.IntVar(&o.runs, "runs", 1, "runs per workload, with seeds seed, seed+1, ...; reports median and quartiles")
	fs.StringVar(&o.jsonOut, "json", "", "write every run's metrics and the per-metric summary to this file")
	fs.StringVar(&o.spansOut, "spans", "", "with -trace 1, write the traced rounds' spans to this JSONL file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case trace != 0 && trace != 1:
		return o, fmt.Errorf("-trace must be 0 or 1")
	case o.seconds < 1 || o.runs < 1:
		return o, fmt.Errorf("-seconds and -runs must be positive")
	case o.spansOut != "" && trace == 0:
		return o, fmt.Errorf("-spans needs -trace 1")
	}
	if o.workload != "" {
		if _, ok := workloadByName(o.workload); !ok {
			return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(names, ", "))
		}
	}
	o.trace = trace == 1
	return o, nil
}

// report is the one-line JSON result printed last for each run.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is the state of one run of one workload.
type bench struct {
	seed   uint64
	smoke  bool
	spans  *spanLog
	golden map[string]string
	serve  *serveInputs

	roundNo   int
	attempted int
	failed    int
	problems  []string
	payloads  map[string][]byte // job (or app) -> payload seen in round 1
}

func (b *bench) size() int {
	if b.smoke {
		return 1
	}
	return 0
}

// fail counts one failed operation or check.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.problems) < 10 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// outcome is one run's result.
type outcome struct {
	workload string
	seed     uint64
	rep      report
	e2e      map[string]float64
	layer    map[string]float64
	notes    []string
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(stderr, "comaperf:", err)
		}
		return 2
	}
	golden, err := loadGolden()
	if err != nil {
		fmt.Fprintln(stderr, "comaperf:", err)
		return 2
	}
	// A hung simulation must not hang the benchmark: each workload run
	// normally ends within a minute.
	n := o.runs
	if o.workload == "" {
		n *= len(workloads)
	}
	watchdog := time.AfterFunc(time.Duration(n)*170*time.Second, func() {
		fmt.Fprintln(stderr, "comaperf: run did not finish in time (hung simulation?)")
		os.Exit(3)
	})
	defer watchdog.Stop()

	var spans *spanLog
	if o.spansOut != "" {
		spans = newSpanLog()
	}
	fmt.Fprintf(stdout, "comaperf: nproc=%d GOMAXPROCS=%d %s/%s %s seconds=%d rounds=%d trace=%v smoke=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH, runtime.Version(),
		o.seconds, rounds(o.seconds, o.smoke), o.trace, o.smoke)

	var all []outcome
	ok := true
	for _, w := range workloads {
		if o.workload != "" && w.name != o.workload {
			continue
		}
		for i := 0; i < o.runs; i++ {
			b := &bench{seed: o.seed + uint64(i), smoke: o.smoke, spans: spans, golden: golden}
			out, err := b.runWorkload(w, o.seconds, o.trace)
			if err != nil {
				fmt.Fprintf(stderr, "comaperf: %s: %v\n", w.name, err)
				return 1
			}
			printOutcome(stdout, out, o.trace)
			ok = ok && out.rep.Correct
			all = append(all, out)
		}
	}
	if o.runs > 1 {
		printSummary(stdout, all, o.trace)
	}
	if o.jsonOut != "" {
		if err := writeJSON(o.jsonOut, all, o.trace); err != nil {
			fmt.Fprintln(stderr, "comaperf:", err)
			return 1
		}
	}
	if spans != nil {
		if err := spans.write(o.spansOut); err != nil {
			fmt.Fprintln(stderr, "comaperf:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// runWorkload runs one workload's rounds. With trace, untraced and
// traced rounds alternate, so drift during the run affects both alike.
func (b *bench) runWorkload(w workload, seconds int, trace bool) (outcome, error) {
	b.payloads = make(map[string][]byte)
	if w.srv != nil {
		in, err := makeServeInputs(w.srv[b.size()], b.seed)
		if err != nil {
			return outcome{}, err
		}
		b.serve = in
	}
	n := rounds(seconds, b.smoke)
	if trace {
		n *= 2
	}
	var untraced, traced []round
	for i := 0; i < n; i++ {
		b.roundNo = i
		t := trace && i%2 == 1
		var r round
		if w.sim != nil {
			r = b.simRound(w, t)
		} else {
			r = b.serveRound(w, t)
		}
		if t {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}

	out := outcome{workload: w.name, seed: b.seed}
	var tailNote string
	out.e2e, tailNote = endToEndMetrics(untraced, w.srv != nil)
	metrics := map[string]metricValue{}
	if trace {
		var rc replayCosts
		if w.srv != nil {
			rc = b.replay(b.serve.ops)
		}
		var err error
		if out.layer, err = layerMetrics(w, untraced, traced, out.e2e, rc); err != nil {
			return out, err
		}
		for _, d := range perLayer {
			metrics[d.name] = metricValue{finite(out.layer[d.name]), d.unit}
		}
	} else {
		for _, d := range endToEnd {
			metrics[d.name] = metricValue{finite(out.e2e[d.name]), d.unit}
		}
	}
	out.rep = report{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	}
	out.e2e["error_rate"] = float64(b.failed) / float64(max(b.attempted, 1))
	b.note(&out, append(untraced, traced...), tailNote)
	return out, nil
}

// finite keeps a JSON-encodable value: a latency made infinite by a
// failed request becomes the largest float, and the run reports failure.
func finite(x float64) float64 {
	switch {
	case math.IsInf(x, 1) || math.IsNaN(x):
		return math.MaxFloat64
	case math.IsInf(x, -1):
		return -math.MaxFloat64
	}
	return x
}

// note records the human-readable remarks printed before the JSON line.
func (b *bench) note(out *outcome, rs []round, tailNote string) {
	out.notes = append(out.notes, tailNote)
	rates := make([]string, len(rs))
	for i, r := range rs {
		rates[i] = fmt.Sprintf("%.4g", float64(r.jobs)/r.use.wall.Seconds())
	}
	out.notes = append(out.notes, "jobs/s by round: "+strings.Join(rates, " "))
	races := 0
	for _, r := range rs {
		races += r.receiptRaces
	}
	if races > 0 {
		out.notes = append(out.notes, fmt.Sprintf("%d receipt GETs found a done job whose receipt was not stored yet (retried)", races))
	}
	for _, p := range b.problems {
		out.notes = append(out.notes, "FAILED: "+p)
	}
}

func printOutcome(w io.Writer, out outcome, trace bool) {
	fmt.Fprintf(w, "--- %s seed=%d\n", out.workload, out.seed)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "%-14s %-28s %16.6g %s\n", out.workload, d.name, out.e2e[d.name], d.unit)
	}
	fmt.Fprintf(w, "%-14s %-28s %16.6g failed/attempted (%d of %d)\n", out.workload, "error_rate",
		out.e2e["error_rate"], out.rep.Failed, out.rep.Attempted)
	for _, d := range timing {
		fmt.Fprintf(w, "%-14s %-28s %16.6g %s\n", out.workload, d.name, out.e2e[d.name], d.unit)
	}
	if trace {
		// perLayer starts with the timing metrics, printed above.
		for _, d := range perLayer[len(timing):] {
			fmt.Fprintf(w, "%-14s %-28s %16.6g %s\n", out.workload, d.name, out.layer[d.name], d.unit)
		}
	}
	for _, line := range out.notes {
		fmt.Fprintf(w, "%-14s %s\n", out.workload, line)
	}
	// Every value is finite, so the report always encodes.
	js, _ := json.Marshal(out.rep)
	fmt.Fprintf(w, "%s\n", js)
}
