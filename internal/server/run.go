package server

import (
	"encoding/json"

	"coma/internal/config"
	"coma/internal/inspect"
	"coma/internal/machine"
	"coma/internal/obs"
	"coma/internal/obs/receipt"
	"coma/internal/stats"
)

// RunOptions carries the per-run attachments a Runner should honour.
// None of them influence the result: the observability layer is
// stats-neutral and the inspection layer answers queries at engine safe
// points, so an inspected run is byte-identical to an uninspected one.
type RunOptions struct {
	// Observer receives the run's observability events (nil: none).
	Observer obs.Observer
	// Inspect, when non-nil, is called with the run's live-inspection
	// controller before the simulation starts; the runner guarantees
	// Finish is called on the controller when the run ends, releasing
	// any blocked clients.
	Inspect func(*inspect.Controller)
}

// inspectSampleEvery is the inspection stream's sampling period in
// simulated cycles.
const inspectSampleEvery = 25_000

// Runner executes one run identity and returns its result. The daemon's
// production runner is SimRunner; tests substitute counting, slow or
// failing runners to drive the scheduler without simulating.
type Runner func(id config.RunIdentity, opts RunOptions) (*stats.Run, error)

// BuildMachine is machine.FromIdentity, kept for existing callers.
func BuildMachine(id config.RunIdentity, observer obs.Observer) (*machine.Machine, error) {
	return machine.FromIdentity(id, observer)
}

// SimRunner executes the identity on an in-process simulated machine.
func SimRunner(id config.RunIdentity, opts RunOptions) (*stats.Run, error) {
	m, err := machine.FromIdentity(id, opts.Observer)
	if err != nil {
		return nil, err
	}
	if opts.Inspect != nil {
		ctl := m.NewInspector(inspectSampleEvery)
		// Finish releases paused/stepping/querying clients even when the
		// run errors out; without it a REPL or HTTP handler would block
		// on a safe point that never comes.
		defer ctl.Finish()
		opts.Inspect(ctl)
	}
	return m.Run()
}

// Execution is one run through Execute: the identity, the runner, and
// what to record beside the result.
type Execution struct {
	Runner   Runner
	Identity config.RunIdentity
	// Producer names the executor in the receipt (receipt.ProducerLocal,
	// or a worker's name). NoReceipts skips the receipt gate (comasim
	// runs that ask for no receipt; comad always records one); a
	// non-empty ReceiptKey signs the receipt. The gate hashes the trace
	// as it streams and keeps it only with KeepTrace (comad's /trace
	// replay, comasim's -receipt-trace-out): a run is a pure function of
	// its identity, so anyone else can derive its trace again.
	Producer   string
	NoReceipts bool
	KeepTrace  bool
	ReceiptKey []byte
	// Counts tallies every event by kind and Publish receives one line
	// per lifecycle event (see progressBridge); nil disables either.
	Counts  *[obs.NumKinds]int64
	Publish func(msg string, simCycles int64)
	// Inspect is passed to the runner as RunOptions.Inspect.
	Inspect func(*inspect.Controller)
}

// Outcome is a finished run as Execute returns it and the completion
// step files it.
type Outcome struct {
	// Payload is the canonical result (MarshalResult); nil when Err is
	// set. Runs are deterministic, so an error fails the job for good.
	Payload []byte
	Err     error
	// Receipt is the (signed) execution receipt and Trace its trace as
	// the gate's packed log (obs.UnpackJSONL expands it to the canonical
	// JSONL that trace_digest covers). Both are nil with NoReceipts or
	// when building the receipt failed (ReceiptErr), and Trace is nil
	// without KeepTrace; a receipt failure never fails the job, whose
	// result is already correct.
	Receipt    *receipt.Receipt
	Trace      []byte
	ReceiptErr error
}

// Execute is the one run sequence, shared by the daemon's in-process
// executors, cluster worker nodes (internal/cluster) and comasim: it
// tees the progress bridge and the receipt gate onto the run's
// observability stream, runs the identity, marshals the canonical
// payload and finishes the receipt over it. A local result and a
// worker's are therefore the same bytes by construction.
func Execute(x Execution) Outcome {
	var observer obs.Observer
	if x.Counts != nil || x.Publish != nil {
		observer = &progressBridge{counts: x.Counts, publish: x.Publish}
	}
	var gate *receipt.Gate
	if !x.NoReceipts {
		if x.KeepTrace {
			gate = receipt.NewGate()
		} else {
			gate = receipt.NewDigestGate()
		}
		observer = obs.Tee(observer, gate)
	}
	run, err := x.Runner(x.Identity, RunOptions{Observer: observer, Inspect: x.Inspect})
	var out Outcome
	if err == nil {
		out.Payload, err = MarshalResult(run)
	}
	if err != nil {
		return Outcome{Err: err}
	}
	if gate == nil {
		return out
	}
	rcpt, trace, err := gate.Finish(x.Identity, out.Payload, x.Producer)
	if err != nil {
		out.ReceiptErr = err
		return out
	}
	if len(x.ReceiptKey) > 0 {
		rcpt = rcpt.Sign(x.ReceiptKey)
	}
	out.Receipt, out.Trace = &rcpt, trace
	return out
}

// MarshalResult produces the canonical result payload: the stats.Run
// encoded as compact JSON. It is computed exactly once per run and
// stored; every response serves the stored bytes, which is what makes
// "byte-identical result payloads" a property of the API rather than of
// the JSON encoder. Execute calls it for local and worker runs alike,
// so a payload computed remotely is byte-for-byte the payload a local
// run would have stored.
func MarshalResult(r *stats.Run) ([]byte, error) {
	return json.Marshal(r)
}
