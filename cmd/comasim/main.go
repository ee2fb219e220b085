// Command comasim runs one simulation of the fault-tolerant COMA and
// prints its statistics: execution time, checkpoint accounting, miss
// rates, injections by cause, and network totals.
//
// Examples:
//
//	comasim -app mp3d -nodes 16 -protocol ecp -hz 100 -scale 0.01
//	comasim -app barnes -protocol standard -scale 0.01
//	comasim -app water -protocol ecp -hz 400 -fail 500000:3 -fail 900000:5:perm
//
// Observability (see README §Observability): -trace-out writes an event
// log — a .jsonl path gets the JSON-lines format, anything else the
// Chrome trace-event JSON that loads in Perfetto; -metrics-out writes
// the histogram summary ("-" for stdout); -obs-filter narrows the
// recorded event classes.
//
//	comasim -app mp3d -protocol ecp -hz 400 -fail 800000:2 \
//	    -trace-out run.trace.json -trace-out run.jsonl -metrics-out -
//
// With -remote, the run executes on a comad daemon (see README
// §Serving) instead of in-process: the job is submitted over HTTP,
// progress streams back live, and a repeated configuration is answered
// from the daemon's result cache without simulating.
//
//	comasim -remote http://localhost:7700 -app mp3d -protocol ecp -hz 100 -scale 0.01
package main

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"coma/internal/config"
	"coma/internal/obs"
	"coma/internal/obs/receipt"
	"coma/internal/proto"
	"coma/internal/report"
	"coma/internal/server"
	"coma/internal/server/client"
	"coma/internal/stats"
)

type failureFlags []config.FailureEvent

func (f *failureFlags) String() string { return fmt.Sprintf("%v", []config.FailureEvent(*f)) }

func (f *failureFlags) Set(v string) error {
	e, err := config.ParseFailure(v)
	if err != nil {
		return err
	}
	*f = append(*f, e)
	return nil
}

func main() {
	var (
		appName  = flag.String("app", "mp3d", "workload: barnes, cholesky, mp3d, water, uniform, private, migratory")
		nodes    = flag.Int("nodes", 16, "number of processing nodes")
		protocol = flag.String("protocol", "ecp", "coherence protocol: standard or ecp")
		hz       = flag.Float64("hz", 100, "recovery points per second (ECP; 0 disables)")
		scale    = flag.Float64("scale", 0.01, "instruction-budget scale factor (1 = paper size)")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		modern   = flag.Bool("modern", false, "use the faster-processor architecture variant")
		strict   = flag.Bool("strict", false, "per-reference interleaving and oracle checks (slow)")
		verify   = flag.Bool("invariants", false, "check recovery-data invariants at every commit")

		remote = flag.String("remote", "", "run on a comad daemon at this base URL instead of in-process")
		repl   = flag.Bool("repl", false, "interactive inspection: pause/step/inspect/resume the run from stdin")

		metricsOut = flag.String("metrics-out", "", "write the histogram summary to this file (\"-\" for stdout)")
		obsFilter  = flag.String("obs-filter", "", "comma-separated event classes to record: state, fill, inject, ckpt, fault, net, all (default all)")

		receiptOut = flag.String("receipt-out", "", "write the execution receipt (coma-receipt/v1 JSON) to this file (\"-\" for stdout); with -remote, fetched from the daemon")
		resultOut  = flag.String("result-out", "", "write the canonical result payload the receipt attests to this file; with -remote, fetched from the daemon")
		receiptKey = flag.String("receipt-key", "", "hex HMAC-SHA256 key signing the receipt (in-process runs; a remote daemon signs with its own key)")
		rtraceOut  = flag.String("receipt-trace-out", "", "write the receipt's trace (JSONL under the receipt mask: the bytes trace_digest covers) to this file as the run streams, kept only if the run and receipt succeed (in-process runs; \"-\" for stdout, where it precedes the run summary)")
	)
	var failures failureFlags
	flag.Var(&failures, "fail", "inject a failure, cycle:node[:perm]; repeatable")
	var traceOuts []string
	flag.Func("trace-out", "write the event trace to this file (.jsonl: JSON lines; otherwise Chrome trace-event JSON); repeatable", func(v string) error {
		traceOuts = append(traceOuts, v)
		return nil
	})
	flag.Parse()

	// The flags are a job spec, and an in-process run is the daemon's:
	// the spec's identity goes through server.Execute, so a local result
	// and receipt are the bytes comad would serve for the same run.
	spec := server.JobSpec{
		App:          *appName,
		Nodes:        *nodes,
		Protocol:     *protocol,
		Scale:        *scale,
		Seed:         *seed,
		Modern:       *modern,
		Strict:       *strict,
		Invariants:   *verify,
		CheckpointHz: *hz,
		Failures:     failures,
	}
	if *protocol == "standard" {
		spec.CheckpointHz = 0
	}
	id, err := spec.Identity(server.BuildRevision())
	if err != nil {
		fmt.Fprintf(os.Stderr, "comasim: %v\n", err)
		os.Exit(2)
	}
	key, err := hex.DecodeString(*receiptKey)
	if err != nil {
		fmt.Fprintf(os.Stderr, "comasim: -receipt-key: %v\n", err)
		os.Exit(2)
	}
	if *remote != "" {
		if len(traceOuts) > 0 || *metricsOut != "" {
			fmt.Fprintln(os.Stderr, "comasim: -trace-out/-metrics-out need an in-process run (drop -remote)")
			os.Exit(2)
		}
		if *repl {
			fmt.Fprintln(os.Stderr, "comasim: -repl needs an in-process run (drop -remote)")
			os.Exit(2)
		}
		if *receiptKey != "" {
			fmt.Fprintln(os.Stderr, "comasim: -receipt-key needs an in-process run (a remote daemon signs with its own key)")
			os.Exit(2)
		}
		if *rtraceOut != "" {
			fmt.Fprintln(os.Stderr, "comasim: -receipt-trace-out needs an in-process run (fetch /v1/jobs/{id}/trace from the daemon)")
			os.Exit(2)
		}
		os.Exit(runRemote(*remote, spec, *receiptOut, *resultOut))
	}

	x := server.Execution{
		Runner:     server.SimRunner,
		Identity:   id,
		Producer:   receipt.ProducerLocal,
		NoReceipts: *receiptOut == "" && *rtraceOut == "",
		ReceiptKey: key,
	}
	var rec *obs.Recorder
	if len(traceOuts) > 0 || *metricsOut != "" {
		mask, err := obs.ParseFilter(*obsFilter)
		if err != nil {
			fmt.Fprintf(os.Stderr, "comasim: %v\n", err)
			os.Exit(2)
		}
		// The user's recorder follows -obs-filter; the receipt gate
		// Execute tees in records receipt.TraceMask whatever it says, so
		// a local receipt matches a comad-emitted one for the same run.
		rec = obs.NewRecorder(mask)
		x.Runner = func(id config.RunIdentity, o server.RunOptions) (*stats.Run, error) {
			o.Observer = obs.Tee(rec, o.Observer)
			return server.SimRunner(id, o)
		}
	}
	var rtrace *streamedFile
	if *rtraceOut != "" {
		if rtrace, err = createStreamed(*rtraceOut); err != nil {
			fmt.Fprintf(os.Stderr, "comasim: -receipt-trace-out: %v\n", err)
			os.Exit(1)
		}
		x.Trace = rtrace.f
	}
	var out server.Outcome
	if *repl {
		out = runREPL(x, os.Stdin, os.Stdout)
	} else {
		out = server.Execute(x)
	}
	if err := finish(out, rec, traceOuts, *metricsOut, *resultOut, rtrace, *receiptOut); err != nil {
		rtrace.discard()
		fmt.Fprintf(os.Stderr, "comasim: %v\n", err)
		os.Exit(1)
	}
}

// finish prints the in-process run's result and writes its artifacts:
// the recorded event stream, the canonical result payload, the
// receipt's trace (streamed into rtrace during the run; nil when not
// asked for) and the execution receipt.
func finish(out server.Outcome, rec *obs.Recorder, traceOuts []string, metricsOut, resultOut string, rtrace *streamedFile, receiptOut string) error {
	if out.Err != nil {
		return out.Err
	}
	res, err := receipt.ParseResult(out.Payload)
	if err != nil {
		return err
	}
	printResult(res)
	if rec != nil {
		if err := exportObservations(rec, res, traceOuts, metricsOut); err != nil {
			return err
		}
	}
	if out.ReceiptErr != nil {
		return out.ReceiptErr
	}
	if resultOut != "" {
		if err := writeArtifact(resultOut, "result", out.Payload); err != nil {
			return err
		}
	}
	if rtrace != nil {
		if err := rtrace.keep(); err != nil {
			return err
		}
	}
	if receiptOut != "" {
		return writeArtifact(receiptOut, "receipt", append(out.Receipt.CanonicalJSON(), '\n'))
	}
	return nil
}

// streamedFile is an artifact written while the run goes on: a
// temporary file beside its path, renamed onto the path by keep, so a
// failed run or receipt leaves no partial file; or standard output for
// "-".
type streamedFile struct {
	f    *os.File
	path string
}

func createStreamed(path string) (*streamedFile, error) {
	if path == "-" {
		return &streamedFile{os.Stdout, path}, nil
	}
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".*")
	if err != nil {
		return nil, err
	}
	return &streamedFile{f, path}, nil
}

// keep closes the file and renames it onto its path.
func (s *streamedFile) keep() error {
	if s.path == "-" {
		return nil
	}
	st, err := s.f.Stat()
	if err == nil {
		err = s.f.Chmod(0o644)
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(s.f.Name(), s.path)
	}
	if err != nil {
		return err
	}
	fmt.Printf("  %-19s %s (%d bytes)\n", "receipt trace", s.path, st.Size())
	return nil
}

// discard removes the file unless keep renamed it; nil does nothing.
func (s *streamedFile) discard() {
	if s != nil && s.path != "-" {
		s.f.Close()
		os.Remove(s.f.Name())
	}
}

// runRemote submits the job to a comad daemon, streams its progress to
// stderr, and prints the result exactly like a local run. When asked
// for a receipt or the canonical payload it fetches the daemon's own
// artifacts — the bytes a later `comatrace attest` must see.
func runRemote(base string, spec server.JobSpec, receiptOut, resultOut string) int {
	c := client.New(base)
	res, st, err := c.RunStreaming(context.Background(), spec, func(ev server.JobEvent) {
		switch ev.Type {
		case "state":
			fmt.Fprintf(os.Stderr, "remote: %s\n", ev.State)
		case "progress":
			fmt.Fprintf(os.Stderr, "remote: [cycle %d] %s\n", ev.SimCycles, ev.Message)
		}
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "comasim: %v\n", err)
		return 1
	}
	if st.Cache == "hit" {
		fmt.Fprintf(os.Stderr, "remote: served from cache (job %s)\n", st.ID[:12])
	}
	printResult(res)
	for _, a := range []struct {
		path, what string
		fetch      func(context.Context, string) ([]byte, error)
	}{{receiptOut, "receipt", c.Receipt}, {resultOut, "result", c.Result}} {
		if a.path == "" {
			continue
		}
		b, err := a.fetch(context.Background(), st.ID)
		if err != nil {
			fmt.Fprintf(os.Stderr, "comasim: fetching %s: %v\n", a.what, err)
			return 1
		}
		if err := writeArtifact(a.path, a.what, b); err != nil {
			fmt.Fprintf(os.Stderr, "comasim: %v\n", err)
			return 1
		}
	}
	return 0
}

// writeArtifact writes bytes to a file or, for "-", standard output.
func writeArtifact(path, what string, b []byte) error {
	if path == "-" {
		_, err := os.Stdout.Write(b)
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("  %-19s %s (%d bytes)\n", what, path, len(b))
	return nil
}

// exportObservations writes the recorded event stream to every requested
// sink once the run has completed.
func exportObservations(rec *obs.Recorder, res *stats.Run, traceOuts []string, metricsOut string) error {
	events := rec.Events()
	for _, path := range traceOuts {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, ".jsonl") {
			err = obs.WriteJSONL(f, events)
		} else {
			err = obs.WriteChromeTrace(f, res.ClockHz, events)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
		fmt.Printf("  trace               %s (%d events)\n", path, len(events))
	}
	if metricsOut == "" {
		return nil
	}
	if metricsOut == "-" {
		fmt.Println()
		return obs.WriteSummary(os.Stdout, events)
	}
	f, err := os.Create(metricsOut)
	if err != nil {
		return err
	}
	err = obs.WriteSummary(f, events)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", metricsOut, err)
	}
	fmt.Printf("  metrics             %s\n", metricsOut)
	return nil
}

func printResult(r *stats.Run) {
	total := r.Total()
	fmt.Printf("%s on %d nodes, %s protocol\n", r.App, r.Nodes, r.Protocol)
	fmt.Printf("  execution time      %d cycles (%.1f ms simulated)\n",
		r.Cycles, 1e3*r.Seconds(r.Cycles))
	fmt.Printf("  instructions        %d (IPC %.2f)\n", total.Instructions,
		float64(total.Instructions)/float64(r.Cycles)/float64(r.Nodes))
	fmt.Printf("  references          %d (%d shared)\n",
		total.References(), total.SharedReads+total.SharedWrites)
	fmt.Printf("  cache miss rate     %.2f%% reads, %.2f%% writes\n",
		pct(r.CacheReadMiss, r.CacheReads), pct(r.CacheWriteMis, r.CacheWrites))
	fmt.Printf("  AM miss rate        %.2f%% reads, %.2f%% writes\n",
		100*total.AMReadMissRate(), 100*total.AMWriteMissRate())
	fmt.Printf("  fills               %d local, %d remote, %d cold\n",
		total.FillsLocal, total.FillsRemote, total.FillsCold)
	fmt.Printf("  network             %d messages, %d flits\n", r.NetMessages, r.NetFlits)
	if r.Ckpt.Established > 0 || r.Ckpt.Recoveries > 0 {
		fmt.Printf("  recovery points     %d established, %d aborted, %d rollbacks\n",
			r.Ckpt.Established, r.Ckpt.Aborted, r.Ckpt.Recoveries)
		fmt.Printf("  T_create            %d cycles (%s of execution)\n",
			r.Ckpt.CreateCycles, report.FormatPct(r.CreateOverhead()))
		fmt.Printf("  T_commit            %d cycles (%s of execution)\n",
			r.Ckpt.CommitCycles, report.FormatPct(r.CommitOverhead()))
		fmt.Printf("  replication         %d items moved, %d reused, %s per node\n",
			total.CkptItemsReplicated, total.CkptItemsReused,
			report.FormatRate(r.PerNodeReplicationThroughput()))
	}
	if inj := total.TotalInjections(); inj > 0 {
		fmt.Printf("  injections          %d total (%.1f per 10k refs)\n",
			inj, total.Per10KRefs(inj))
		for c := proto.InjectCause(0); c < proto.NumInjectCauses; c++ {
			if total.Injections[c] > 0 {
				fmt.Printf("    %-18s %d\n", c.String(), total.Injections[c])
			}
		}
	}
	fmt.Printf("  pages allocated     %d frames (peak)\n", r.PagesPeak)
}

func pct(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}
