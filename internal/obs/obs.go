// Package obs is the simulator's observability layer: typed events
// stamped with simulated time, an Observer interface the hot paths emit
// through, a buffering Recorder with kind-class filtering, fixed-bucket
// histogram metrics derived from the event stream, and exporters —
// JSONL event logs, Chrome trace-event JSON (loads in Perfetto or
// chrome://tracing) and a human-readable summary.
//
// Cost model: every instrumented layer holds a nil Observer by default
// and guards each emission with a single nil check, so a disabled run
// pays one predictable branch per site and zero allocations (pinned by
// BenchmarkObsDisabled / TestObsDisabledZeroAlloc). Events carry the
// sim.Engine clock, never wall-clock time, so a trace of a seeded run
// is byte-deterministic (asserted by TestObsTraceByteIdentical in
// internal/machine).
package obs

import (
	"fmt"
	"strings"

	"coma/internal/proto"
)

// Kind classifies an event.
type Kind uint8

const (
	// KState is a coherence state transition of one item copy in one
	// attraction memory (From -> To), including the ECP recovery states
	// Shared-CK1/2, Inv-CK1/2 and Pre-Commit1/2.
	KState Kind = iota
	// KReadFill is a read miss filled into a node's AM: A is the fill
	// source (FillLocal/FillRemote/FillCold), B the miss latency in
	// cycles.
	KReadFill
	// KWriteFill is a write miss completed (exclusive copy obtained):
	// A is the fill source, B the miss latency in cycles.
	KWriteFill
	// KInjectProbe is one probe of the injection ring walk: A is the
	// probed node, B the lap (0 first, 1 second).
	KInjectProbe
	// KInjectAccept is an accepted injection: A is the accepting node,
	// B the number of ring hops (refused probes) before acceptance.
	KInjectAccept
	// KPhaseBegin marks a node entering a checkpoint/recovery phase
	// (A = Phase).
	KPhaseBegin
	// KPhaseEnd marks a node leaving a phase: A = Phase, B = duration
	// in cycles.
	KPhaseEnd
	// KRoundBegin marks the coordinator starting a global round:
	// A = 0 for a checkpoint round, 1 for a recovery round; B = round.
	KRoundBegin
	// KRoundQuiesced marks all participants quiesced (B = round).
	KRoundQuiesced
	// KRoundEnd marks the end of a global round: A = mode as in
	// KRoundBegin (a checkpoint round aborted into recovery ends with
	// A = 1), B = round.
	KRoundEnd
	// KCommitted marks a recovery point committing (B = round).
	KCommitted
	// KFault is a node failure being applied: A = 1 if permanent,
	// B = round of the recovery that handles it.
	KFault
	// KRollback marks the directory rebuilt after a rollback:
	// A = number of items dropped (no surviving recovery copy),
	// B = round.
	KRollback
	// KReconfig reports one node's reconfiguration work: A = number of
	// recovery copies re-created.
	KReconfig
	// KQueueDepth is a sim-time ticker sample of mesh occupancy:
	// A = in-flight messages on the request subnet, B = reply subnet.
	KQueueDepth
	// KTxnBegin opens a protocol transaction (Txn = its ID, Par = the
	// parent transaction or zero): A = TxnOp, B = cycles spent queueing
	// before the transaction got to work (item-lock or bus wait), so the
	// request actually arrived at Time - B.
	KTxnBegin
	// KTxnHop is one mesh delivery belonging to a transaction: Node is
	// the destination, A = int64(proto.MsgKind), B = the message's
	// network latency in cycles (delivery time minus send time).
	KTxnHop
	// KTxnEnd closes a transaction: A is op-specific (fill source for
	// reads/writes, accepting node for injections, round mode for
	// coordinator rounds), B = total latency in cycles.
	KTxnEnd

	numKinds
)

// NumKinds is the number of event kinds (for sizing per-kind tables
// outside the package).
const NumKinds = int(numKinds)

var kindNames = [numKinds]string{
	"state", "read-fill", "write-fill", "inject-probe", "inject-accept",
	"phase-begin", "phase-end", "round-begin", "round-quiesced",
	"round-end", "committed", "fault", "rollback", "reconfig",
	"queue-depth", "txn-begin", "txn-hop", "txn-end",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Fill sources (the A field of KReadFill/KWriteFill), matching the
// stats.Node Fills* counters.
const (
	// FillLocal: satisfied by the local AM (after queueing behind a
	// transaction, or a master upgrade in place).
	FillLocal int64 = iota
	// FillRemote: the data travelled from a remote AM.
	FillRemote
	// FillCold: first touch of initialised-background memory.
	FillCold
)

// Transaction operations (the A field of KTxnBegin), classifying what
// the transaction is.
const (
	// TxnRead is a read-miss transaction.
	TxnRead int64 = iota
	// TxnWrite is a write-miss transaction.
	TxnWrite
	// TxnInject is an injection (ring walk + data transfer), usually a
	// child of the access or round transaction that forced it.
	TxnInject
	// TxnCkptRound is a coordinator checkpoint round.
	TxnCkptRound
	// TxnRecoveryRound is a coordinator recovery round.
	TxnRecoveryRound

	NumTxnOps // NumTxnOps is the number of transaction operations.
)

// TxnOpName names a transaction operation.
func TxnOpName(op int64) string {
	switch op {
	case TxnRead:
		return "read"
	case TxnWrite:
		return "write"
	case TxnInject:
		return "inject"
	case TxnCkptRound:
		return "ckpt-round"
	case TxnRecoveryRound:
		return "recovery-round"
	}
	return fmt.Sprintf("op(%d)", op)
}

// Phase identifies one per-node phase of the checkpoint/recovery
// algorithm (the A field of KPhaseBegin/KPhaseEnd).
type Phase uint8

const (
	// PhaseCreate is the create phase of a recovery-point establishment
	// (replication of every modified item).
	PhaseCreate Phase = iota
	// PhaseCommit is the local commit scan (PreCommit -> Shared-CK,
	// old Inv-CK discarded).
	PhaseCommit
	// PhaseRecoveryScan is the rollback scan (current state dropped,
	// Inv-CK restored to Shared-CK).
	PhaseRecoveryScan
	// PhaseReconfigure restores two-copy persistence after failures.
	PhaseReconfigure

	NumPhases // NumPhases is the number of per-node phases.
)

var phaseNames = [NumPhases]string{"create", "commit", "recovery-scan", "reconfigure"}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("Phase(%d)", uint8(p))
}

// Event is one observed occurrence. Time is always the sim.Engine clock
// in cycles — wall-clock time must never enter an event (enforced by
// the comalint obswallclock analyzer). The meaning of A and B depends
// on Kind; unused fields are zero (Item is NoItem where meaningless).
type Event struct {
	Time  int64
	Kind  Kind
	Node  proto.NodeID
	Item  proto.ItemID
	From  proto.State // KState only
	To    proto.State // KState only
	Cause proto.InjectCause
	// Txn is the protocol transaction this event belongs to (KTxnBegin,
	// KTxnHop, KTxnEnd; also stamped on KInjectProbe/KInjectAccept so
	// injection events correlate with their transaction). NoTxn elsewhere.
	Txn proto.TxnID
	// Par is the parent transaction of a KTxnBegin (the access that
	// forced an injection, the round that drove a phase), or NoTxn.
	Par proto.TxnID
	A   int64
	B   int64
}

// Observer receives events as the simulation runs. Implementations must
// be cheap (they run on protocol hot paths), must not block, and must
// not schedule simulator work. The value passed is a plain struct:
// emitting through a non-nil Observer does not allocate.
type Observer interface {
	Emit(Event)
}

// Tee returns an Observer that forwards every event to a, then to b.
// A nil side is skipped, so Tee(nil, o) is o itself; fanning out adds
// one call per event and no allocations.
func Tee(a, b Observer) Observer {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return tee{a, b}
}

type tee struct{ a, b Observer }

func (t tee) Emit(ev Event) {
	t.a.Emit(ev)
	t.b.Emit(ev)
}

// Nop is an Observer that discards every event; useful where an
// always-non-nil Observer simplifies call sites (tests, tools). The
// simulator layers themselves use a nil Observer when disabled.
type Nop struct{}

// Emit implements Observer.
func (Nop) Emit(Event) {}

// Mask selects event kinds; bit k enables Kind k.
type Mask uint32

// MaskAll enables every kind.
const MaskAll Mask = 1<<numKinds - 1

// Has reports whether the kind is enabled.
func (m Mask) Has(k Kind) bool { return m&(1<<k) != 0 }

// classes maps -obs-filter class names onto kind sets.
var classes = map[string]Mask{
	"state":  1 << KState,
	"fill":   1<<KReadFill | 1<<KWriteFill,
	"inject": 1<<KInjectProbe | 1<<KInjectAccept,
	"ckpt": 1<<KPhaseBegin | 1<<KPhaseEnd | 1<<KRoundBegin |
		1<<KRoundQuiesced | 1<<KRoundEnd | 1<<KCommitted,
	"fault": 1<<KFault | 1<<KRollback | 1<<KReconfig,
	"net":   1 << KQueueDepth,
	"txn":   1<<KTxnBegin | 1<<KTxnHop | 1<<KTxnEnd,
	"all":   MaskAll,
}

// FilterClasses returns the valid -obs-filter class names.
func FilterClasses() []string {
	return []string{"state", "fill", "inject", "ckpt", "fault", "net", "txn", "all"}
}

// ParseFilter turns a comma-separated class list ("inject,ckpt,fault")
// into a Mask. The empty string means everything.
func ParseFilter(s string) (Mask, error) {
	if strings.TrimSpace(s) == "" {
		return MaskAll, nil
	}
	var m Mask
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		c, ok := classes[part]
		if !ok {
			return 0, fmt.Errorf("obs: unknown filter class %q (have %s)",
				part, strings.Join(FilterClasses(), ", "))
		}
		m |= c
	}
	return m, nil
}
