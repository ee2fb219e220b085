// Command comatrace records synthetic workload reference streams to
// compact trace files and inspects them. Traces replayed through
// comasim-style runs drive both protocols with byte-identical references
// — the paper's methodology of comparing two simulators on the same
// traced applications.
//
//	comatrace record -app mp3d -scale 0.001 -procs 16 -out traces/
//	comatrace info traces/mp3d.3.trace
//
// It also analyses observability event logs written by
// comasim -trace-out (JSONL format):
//
//	comatrace summarize run.jsonl     per-kind counts and histograms
//	comatrace critpath run.jsonl      transaction latency decomposition
//	comatrace coverage run.jsonl      protocol-edge coverage vs the ECP table
//	comatrace check run.jsonl         replay + recovery-invariant checker
//	comatrace diff a.jsonl b.jsonl    first divergence of two same-seed traces
//
// And it verifies execution receipts (comasim -receipt-out, or
// GET /v1/jobs/{id}/receipt from a comad daemon) offline:
//
//	comatrace attest run.receipt.json -result run.result.json -trace run.jsonl
//
// exits 0 when every recorded digest, total, and invariant verdict
// recomputes from the artifacts, 1 naming the first divergent field.
//
// Every JSONL argument may be "-" for standard input. Malformed input
// exits non-zero with the offending line number.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"coma"
	"coma/internal/obs"
	"coma/internal/obs/receipt"
	"coma/internal/obs/txnview"
	"coma/internal/trace"
	"coma/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "summarize":
		summarize(os.Args[2:])
	case "critpath":
		critpath(os.Args[2:])
	case "coverage":
		coverage(os.Args[2:])
	case "check":
		check(os.Args[2:])
	case "diff":
		diff(os.Args[2:])
	case "attest":
		attest(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  comatrace record -app <name> [-scale f] [-procs n] [-seed s] [-out dir]
  comatrace info <trace-file>...
  comatrace summarize <events.jsonl>...
  comatrace critpath [-top n] <events.jsonl>...
  comatrace coverage <events.jsonl>...
  comatrace check <events.jsonl>...
  comatrace diff <a.jsonl> <b.jsonl>
  comatrace attest [-result file] [-trace file] [-key hex] <receipt.json>

  JSONL arguments accept "-" for standard input.`)
	os.Exit(2)
}

// loadEvents reads one JSONL event log ("-" means standard input),
// exiting with the offending line number on malformed input.
func loadEvents(path string) []obs.Event {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "comatrace: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		r = f
	}
	events, err := obs.ReadJSONL(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "comatrace: %s: %v\n", displayName(path), err)
		os.Exit(1)
	}
	return events
}

func displayName(path string) string {
	if path == "-" {
		return "stdin"
	}
	return path
}

// summarize renders the histogram/summary report of JSONL event logs
// written by comasim -trace-out. It derives the metrics with the same
// code path the live exporter uses, so the two reports agree.
func summarize(paths []string) {
	if len(paths) == 0 {
		usage()
	}
	for _, path := range paths {
		events := loadEvents(path)
		if len(events) == 0 {
			// An empty trace is almost always an upstream mistake (wrong
			// file, over-narrow -obs-filter), so fail loudly instead of
			// printing an all-zero report.
			fmt.Fprintf(os.Stderr, "comatrace: %s: trace contains no events (wrong file, or -obs-filter recorded nothing?)\n",
				displayName(path))
			os.Exit(1)
		}
		fmt.Printf("%s:\n", displayName(path))
		if err := obs.WriteSummary(os.Stdout, events); err != nil {
			fmt.Fprintf(os.Stderr, "comatrace: %v\n", err)
			os.Exit(1)
		}
	}
}

// critpath decomposes every traced transaction's latency into queueing,
// network, service and fill components, and lists the slowest ones.
func critpath(args []string) {
	fs := flag.NewFlagSet("critpath", flag.ExitOnError)
	top := fs.Int("top", 10, "number of slowest transactions to list")
	_ = fs.Parse(args)
	if fs.NArg() == 0 {
		usage()
	}
	for _, path := range fs.Args() {
		events := loadEvents(path)
		r, err := txnview.CritPath(events, *top)
		if err != nil {
			fmt.Fprintf(os.Stderr, "comatrace: %s: %v\n", displayName(path), err)
			os.Exit(1)
		}
		fmt.Printf("%s:\n", displayName(path))
		if err := r.Write(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "comatrace: %v\n", err)
			os.Exit(1)
		}
	}
}

// coverage diffs the observed transition matrix against the full ECP
// transition table.
func coverage(paths []string) {
	if len(paths) == 0 {
		usage()
	}
	exit := 0
	for _, path := range paths {
		events := loadEvents(path)
		r := txnview.Coverage(events)
		fmt.Printf("%s:\n", displayName(path))
		if err := r.Write(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "comatrace: %v\n", err)
			os.Exit(1)
		}
		if len(r.Unexpected) > 0 {
			exit = 1 // the simulator performed an undefined transition
		}
	}
	os.Exit(exit)
}

// check replays traces against the protocol's recovery invariants and
// exits non-zero on any violation.
func check(paths []string) {
	if len(paths) == 0 {
		usage()
	}
	exit := 0
	for _, path := range paths {
		events := loadEvents(path)
		r := txnview.Check(events)
		fmt.Printf("%s:\n", displayName(path))
		if err := r.Write(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "comatrace: %v\n", err)
			os.Exit(1)
		}
		if !r.OK() {
			exit = 1
		}
	}
	os.Exit(exit)
}

// diff reports the first divergence between two JSONL traces of
// supposedly identical runs (same seed, same config). Traces are
// byte-deterministic, so the comparison is line-by-line on the raw
// text: the first differing line pinpoints where two runs parted ways.
func diff(paths []string) {
	if len(paths) != 2 {
		usage()
	}
	if paths[0] == "-" && paths[1] == "-" {
		fmt.Fprintln(os.Stderr, "comatrace: diff: only one argument may be \"-\"")
		os.Exit(2)
	}
	a, b := loadLines(paths[0]), loadLines(paths[1])
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			fmt.Printf("first divergence at line %d:\n", i+1)
			fmt.Printf("  %s: %s\n", displayName(paths[0]), a[i])
			fmt.Printf("  %s: %s\n", displayName(paths[1]), b[i])
			os.Exit(1)
		}
	}
	if len(a) != len(b) {
		longer, extra := paths[0], len(a)-len(b)
		if len(b) > len(a) {
			longer, extra = paths[1], len(b)-len(a)
		}
		fmt.Printf("traces agree for %d lines; %s has %d extra\n", n, displayName(longer), extra)
		os.Exit(1)
	}
	fmt.Printf("traces identical (%d lines)\n", n)
}

// loadLines reads a file (or stdin) as lines, validating it parses as
// an event log first so diff errors point at malformed input, not at a
// spurious divergence.
func loadLines(path string) []string {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "comatrace: %v\n", err)
		os.Exit(1)
	}
	lines := splitLines(string(data))
	return lines
}

// splitLines splits on '\n', dropping a trailing empty line.
func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// attest verifies an execution receipt against its artifacts: the
// signature (with -key), then every derivable field — result digest,
// cycle/event totals, trace digest, and the full recovery-invariant
// replay. Exit 0 means the receipt is genuine for the supplied
// artifacts; exit 1 names the first field that does not recompute.
func attest(args []string) {
	fs := flag.NewFlagSet("attest", flag.ExitOnError)
	resultPath := fs.String("result", "", "canonical result payload to verify against result_digest")
	tracePath := fs.String("trace", "", "JSONL event trace to verify against trace_digest and the invariant verdict")
	keyHex := fs.String("key", "", "hex HMAC-SHA256 key; when set, the signature must verify")
	// Accept the receipt path before or after the flags:
	// `attest run.receipt.json -trace run.jsonl` reads naturally.
	receiptPath := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") || len(args) > 0 && args[0] == "-" {
		receiptPath, args = args[0], args[1:]
	}
	_ = fs.Parse(args)
	switch {
	case receiptPath == "" && fs.NArg() == 1:
		receiptPath = fs.Arg(0)
	case receiptPath != "" && fs.NArg() == 0:
	default:
		usage()
	}
	key, err := hex.DecodeString(*keyHex)
	if err != nil {
		fmt.Fprintf(os.Stderr, "comatrace: -key: %v\n", err)
		os.Exit(2)
	}
	if *keyHex == "" {
		key = nil // Attest skips signature checks on a nil key
	}

	rcpt, err := receipt.Parse(loadArtifact(receiptPath))
	if err != nil {
		fmt.Fprintf(os.Stderr, "comatrace: %s: %v\n", displayName(receiptPath), err)
		os.Exit(1)
	}
	var arts receipt.Artifacts
	if *resultPath != "" {
		arts.Result = loadArtifact(*resultPath)
	}
	if *tracePath != "" {
		arts.Trace = loadArtifact(*tracePath)
	}
	if err := rcpt.Attest(arts, key); err != nil {
		fmt.Fprintf(os.Stderr, "comatrace: attest FAILED: %v\n", err)
		os.Exit(1)
	}
	checked := []string{"schema", "canonical form"}
	if key != nil {
		checked = append(checked, "sig")
	}
	if arts.Result != nil {
		checked = append(checked, "result_digest", "sim_cycles", "sim_events")
	}
	if arts.Trace != nil {
		checked = append(checked, "trace_digest", "trace_events", "invariants")
	}
	fmt.Printf("%s: verified (%s)\n", displayName(receiptPath), strings.Join(checked, ", "))
	fmt.Printf("  run       %s\n", rcpt.RunHash)
	fmt.Printf("  producer  %s\n", rcpt.Producer)
	fmt.Printf("  verdict   %s\n", rcpt.VerdictLabel())
	if arts.Result == nil && arts.Trace == nil {
		fmt.Println("  note      no artifacts supplied; only the receipt itself was checked")
	}
}

// loadArtifact reads a whole artifact file ("-" for standard input).
func loadArtifact(path string) []byte {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "comatrace: %v\n", err)
		os.Exit(1)
	}
	return data
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	appName := fs.String("app", "mp3d", "workload preset")
	scale := fs.Float64("scale", 0.001, "instruction-budget scale")
	procs := fs.Int("procs", 16, "number of processors")
	seed := fs.Uint64("seed", 1, "workload seed")
	out := fs.String("out", ".", "output directory")
	_ = fs.Parse(args)

	spec, ok := coma.AppByName(*appName)
	if !ok {
		fmt.Fprintf(os.Stderr, "comatrace: unknown app %q\n", *appName)
		os.Exit(2)
	}
	if *scale > 0 {
		spec = spec.Scale(*scale)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "comatrace: %v\n", err)
		os.Exit(1)
	}
	for p := 0; p < *procs; p++ {
		path := filepath.Join(*out, fmt.Sprintf("%s.%d.trace", spec.Name, p))
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "comatrace: %v\n", err)
			os.Exit(1)
		}
		n, err := trace.Record(spec.NewApp(p, *procs, *seed), f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "comatrace: %s: %v\n", path, err)
			os.Exit(1)
		}
		st, _ := os.Stat(path)
		fmt.Printf("%s: %d references, %d bytes (%.2f bytes/ref)\n",
			path, n, st.Size(), float64(st.Size())/float64(n))
	}
}

func info(paths []string) {
	if len(paths) == 0 {
		usage()
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "comatrace: %v\n", err)
			os.Exit(1)
		}
		refs, err := trace.Read(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "comatrace: %s: %v\n", path, err)
			os.Exit(1)
		}
		var mix workload.Tally
		for _, r := range refs {
			mix.Add(r)
		}
		fmt.Printf("%s:\n", path)
		fmt.Printf("  records   %d\n", len(refs))
		fmt.Printf("  instr     %d\n", mix.Instructions)
		fmt.Printf("  reads     %d (%d shared)\n", mix.Reads, mix.SharedReads)
		fmt.Printf("  writes    %d (%d shared)\n", mix.Writes, mix.SharedWrites)
		fmt.Printf("  barriers  %d\n", mix.Barriers)
	}
}
