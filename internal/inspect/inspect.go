// Package inspect is the live-inspection layer: read-only queries
// against a running simulation, answered at the engine's deterministic
// safe points (sim.Engine.SetSafePointHook) so an inspected run's
// dispatch sequence — and therefore its trace — is byte-identical to an
// uninspected one.
//
// The split of responsibilities:
//
//   - A Source (implemented by machine.Machine) knows how to build the
//     view structs from simulator state. Its methods are only ever
//     called while the simulation is quiescent: at a safe point on the
//     engine goroutine, or after the run has finished.
//   - A Controller mediates between client goroutines (HTTP handlers,
//     the comasim REPL) and the simulation: clients post queries and
//     pause/step/resume requests; the safe-point hook executes them.
//
// The views are plain JSON-taggable values with deterministic encodings
// (no map iteration), shared by the comad HTTP API, the comasim REPL
// and comad top.
package inspect

import (
	"coma/internal/obs"
	"coma/internal/proto"
)

// Source answers inspection queries. Implementations read simulator
// state directly and are only invoked while it is quiescent (see the
// package comment); they must not mutate anything.
type Source interface {
	// InspectLine reports the directory entry and every AM copy of one
	// item: who is master, where the recovery pair lives, KState.
	InspectLine(item proto.ItemID) LineView
	// InspectNodes reports per-node liveness, frame usage and the ECP
	// state-count histogram, indexed by node id.
	InspectNodes() []NodeView
	// InspectQueues reports mesh occupancy: in-flight messages, busy
	// links and per-node injection-port backlogs for both subnets.
	InspectQueues() QueuesView
	// InspectSummary reports scheduler and checkpoint-phase state.
	InspectSummary() SummaryView
}

// CopyView is one AM copy of an item.
type CopyView struct {
	Node  int    `json:"node"`
	State string `json:"state"`
	// Partner is the node holding the other copy of a recovery pair;
	// -1 when the state is not a recovery state.
	Partner int    `json:"partner"`
	Value   uint64 `json:"value"`
}

// LineView is the per-line query result: the directory's view of one
// item plus every copy found in an attraction memory.
type LineView struct {
	Item int64 `json:"item"`
	Page int64 `json:"page"`
	// Home is the directory node for the item.
	Home int `json:"home"`
	// Present reports whether a directory entry exists (the item has
	// been touched since the last rollback that discarded it).
	Present bool `json:"present"`
	// Owner is the node whose copy answers requests; -1 when none.
	Owner   int        `json:"owner"`
	Sharers []int      `json:"sharers"`
	Copies  []CopyView `json:"copies"`
	// RecoveryPairs lists each recovery pair as the two nodes holding
	// its copies, lower id first, deduplicated.
	RecoveryPairs [][2]int `json:"recovery_pairs"`
}

// NodeView is one node's ECP state histogram.
type NodeView struct {
	Node   int  `json:"node"`
	Alive  bool `json:"alive"`
	Frames int  `json:"frames"`
	// States tallies the node's allocated copies per protocol state;
	// marshals as an object keyed by state name in declaration order.
	States obs.StateCounts `json:"states"`
}

// SubnetView is mesh occupancy for one subnet.
type SubnetView struct {
	// Inflight counts messages accepted by Send but not yet delivered.
	Inflight int64 `json:"inflight"`
	// BusyLinks counts directed links occupied at the sample time.
	BusyLinks int `json:"busy_links"`
	// NISendBusy and NIRecvBusy are per-node injection-port backlogs in
	// cycles (0 = idle), indexed by node id.
	NISendBusy []int64 `json:"ni_send_busy"`
	NIRecvBusy []int64 `json:"ni_recv_busy"`
}

// QueuesView is the queues query result.
type QueuesView struct {
	SimCycles int64      `json:"sim_cycles"`
	Request   SubnetView `json:"request"`
	Reply     SubnetView `json:"reply"`
}

// PhaseView is the fault/checkpoint phase of the coordinator.
type PhaseView struct {
	// Round numbers checkpoint/recovery rounds; 0 before the first.
	Round int64 `json:"round"`
	// Recovery reports whether the current round is a recovery
	// (rollback) rather than a recovery-point establishment.
	Recovery bool `json:"recovery"`
	// PauseRequested reports whether processors are being gathered for
	// a round (the quiesce phase is in progress).
	PauseRequested bool `json:"pause_requested"`
	QuiesceGot     int  `json:"quiesce_got"`
	QuiesceNeed    int  `json:"quiesce_need"`
	Phase1Got      int  `json:"phase1_got"`
	Phase1Need     int  `json:"phase1_need"`
	Phase2Got      int  `json:"phase2_got"`
	Phase2Need     int  `json:"phase2_need"`
	// Cumulative checkpointing statistics (stats.Checkpointing).
	Established     int64 `json:"established"`
	Aborted         int64 `json:"aborted"`
	Skipped         int64 `json:"skipped"`
	Recoveries      int64 `json:"recoveries"`
	PendingFailures int   `json:"pending_failures"`
}

// SummaryView is the scheduler + phase summary.
type SummaryView struct {
	SimCycles int64 `json:"sim_cycles"`
	// Events is the total dispatched so far (sim.Engine.Events).
	Events int64 `json:"events"`
	// Processes counts the live simulated processes (sim.Engine.Processes):
	// the processors and the recovery coordinator only, since message
	// handlers run as events.
	Processes int `json:"processes"`
	// Pending-event population by residence (sim.Engine.QueueStats).
	WheelEvents    int `json:"wheel_events"`
	OverflowEvents int `json:"overflow_events"`
	Nodes          int `json:"nodes"`
	LiveNodes      int `json:"live_nodes"`
	DirectoryItems int `json:"directory_items"`
	LockedItems    int `json:"locked_items"`
	// Finished reports whether the run has completed (queries are then
	// answered from the final quiescent state).
	Finished bool      `json:"finished"`
	Phase    PhaseView `json:"phase"`
}

// Sample is one periodic snapshot pushed on the inspect stream. Seq
// increases by one per sample; a client that sees a gap missed samples
// (the stream carries only the latest).
type Sample struct {
	Seq     int64       `json:"seq"`
	Summary SummaryView `json:"summary"`
	Queues  QueuesView  `json:"queues"`
	Nodes   []NodeView  `json:"nodes"`
}
