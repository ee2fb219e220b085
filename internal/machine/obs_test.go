package machine

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"coma/internal/coherence"
	"coma/internal/config"
	"coma/internal/obs"
	"coma/internal/obs/txnview"
)

// tracedCfg builds the acceptance-criteria scenario: a 4-node ECP run
// with several recovery points and one transient failure placed inside
// the run's span.
func tracedCfg(t *testing.T) Config {
	t.Helper()
	cfg := baseCfg(4, coherence.ECP)
	span := probeCycles(t, cfg)
	cfg.CheckpointInterval = span / 6
	cfg.Failures = []config.FailureEvent{{At: span / 2, Node: 1}}
	return cfg
}

func runTraced(t *testing.T, cfg Config) (*obs.Recorder, []byte) {
	t.Helper()
	rec := obs.NewRecorder(obs.MaskAll)
	cfg.Obs = rec
	runCfg(t, cfg)
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	return rec, buf.Bytes()
}

// TestObsTraceByteIdentical is the golden determinism test: two
// same-seed traced runs must produce byte-identical JSONL event logs.
func TestObsTraceByteIdentical(t *testing.T) {
	cfg := tracedCfg(t)
	rec, first := runTraced(t, cfg)
	_, second := runTraced(t, cfg)
	if !bytes.Equal(first, second) {
		t.Fatalf("same-seed JSONL traces differ: %d vs %d bytes", len(first), len(second))
	}

	counts := map[obs.Kind]int{}
	for _, ev := range rec.Events() {
		counts[ev.Kind]++
	}
	if counts[obs.KFault] < 1 {
		t.Error("traced run recorded no fault event")
	}
	if counts[obs.KRollback] < 1 {
		t.Error("traced run recorded no rollback event")
	}
	if counts[obs.KCommitted] < 1 {
		t.Error("traced run recorded no committed recovery point")
	}
	if counts[obs.KState] == 0 || counts[obs.KReadFill] == 0 || counts[obs.KQueueDepth] == 0 {
		t.Errorf("missing event kinds: state=%d read-fill=%d queue-depth=%d",
			counts[obs.KState], counts[obs.KReadFill], counts[obs.KQueueDepth])
	}
}

// TestObsTxnTracing runs the faulted scenario and validates the causal
// transaction layer end to end: transactions are minted and closed, carry
// mesh hops, survive a JSONL round trip, and the reconstructed trace
// passes the offline invariant checker while exercising at least one
// recovery edge of the protocol table.
func TestObsTxnTracing(t *testing.T) {
	cfg := tracedCfg(t)
	rec, raw := runTraced(t, cfg)

	counts := map[obs.Kind]int{}
	for _, ev := range rec.Events() {
		counts[ev.Kind]++
	}
	if counts[obs.KTxnBegin] == 0 || counts[obs.KTxnHop] == 0 {
		t.Fatalf("txn events missing: begin=%d hop=%d", counts[obs.KTxnBegin], counts[obs.KTxnHop])
	}
	if counts[obs.KTxnEnd] > counts[obs.KTxnBegin] {
		t.Errorf("more txn ends (%d) than begins (%d)", counts[obs.KTxnEnd], counts[obs.KTxnBegin])
	}

	events, err := obs.ReadJSONL(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	r := txnview.Check(events)
	if !r.OK() {
		t.Errorf("invariant checker rejected a live run:\n%v", r.Violations)
	}
	if r.Txns == 0 || r.Rounds == 0 {
		t.Errorf("check saw txns=%d rounds=%d, want both > 0", r.Txns, r.Rounds)
	}

	cov := txnview.Coverage(events)
	if len(cov.Unexpected) != 0 {
		t.Errorf("run exercised transitions outside the protocol table: %v", cov.Unexpected)
	}
	recovery := false
	for _, e := range cov.Exercised {
		if e.Recovery() {
			recovery = true
		}
	}
	if !recovery {
		t.Error("faulted run exercised no recovery edge")
	}
}

// TestObsDoesNotPerturb proves observation is read-only: the full
// statistics record of an observed run equals the unobserved one.
func TestObsDoesNotPerturb(t *testing.T) {
	cfg := tracedCfg(t)
	bare := runCfg(t, cfg)

	cfg.Obs = obs.NewRecorder(obs.MaskAll)
	observed := runCfg(t, cfg)

	if !reflect.DeepEqual(bare, observed) {
		t.Errorf("observation changed the run statistics:\nbare:     %+v\nobserved: %+v",
			bare, observed)
	}
}

// TestObsChromeExportFromMachineRun renders the traced run as a Chrome
// trace and checks its structure: one named track per node plus the
// coordinator, checkpoint-phase spans, and the fault instant.
func TestObsChromeExportFromMachineRun(t *testing.T) {
	cfg := tracedCfg(t)
	rec, _ := runTraced(t, cfg)

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, cfg.Arch.ClockHz, rec.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string          `json:"name"`
			Phase string          `json:"ph"`
			TID   json.RawMessage `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	threads, createSpans, faults, recoveries := 0, 0, 0, 0
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Name == "thread_name":
			threads++
		case ev.Phase == "X" && ev.Name == obs.PhaseCreate.String():
			createSpans++
		case ev.Phase == "i" && ev.Name == "fault (transient)":
			faults++
		case ev.Phase == "X" && ev.Name == "recovery round":
			recoveries++
		}
	}
	if want := cfg.Arch.Nodes + 1; threads != want {
		t.Errorf("thread_name tracks = %d, want %d (nodes + coordinator)", threads, want)
	}
	if createSpans == 0 {
		t.Error("no create-phase spans in Chrome trace")
	}
	if faults != 1 {
		t.Errorf("fault instants = %d, want 1", faults)
	}
	if recoveries != 1 {
		t.Errorf("recovery-round spans = %d, want 1", recoveries)
	}
}
