package server

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"coma/internal/coherence"
	"coma/internal/config"
	"coma/internal/fault"
	"coma/internal/inspect"
	"coma/internal/machine"
	"coma/internal/workload"
)

// State is a job's position in its lifecycle. In single-process mode
// the machine is strictly forward: queued -> running -> done|failed,
// with cancelled reachable only from queued (a running simulation is
// never killed; see DESIGN.md §22). In cluster mode a job leased to a
// worker is running, and a lost worker moves it running -> queued again
// (lease expiry, see DESIGN.md §12); a job requeued more than the
// configured maximum ends dead_letter instead.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
	// StateDeadLetter is the cluster scheduler's give-up state: the job's
	// lease expired more than Options.MaxRequeues times, so either the
	// job reliably kills workers or the fleet is too unstable to finish
	// it. Terminal, like failed, but distinguishable so operators can
	// tell worker churn from simulation errors.
	StateDeadLetter State = "dead_letter"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled || s == StateDeadLetter
}

// JobSpec is the wire format of POST /v1/jobs: a validated simulation
// request. The zero value of every optional field means "the default",
// so a minimal submission is {"app":"mp3d","nodes":4,"protocol":"ecp"}.
type JobSpec struct {
	// App names a workload preset (barnes, cholesky, mp3d, water,
	// uniform, private, migratory).
	App string `json:"app"`
	// Nodes is the machine size (ignored when Arch is given).
	Nodes int `json:"nodes"`
	// Protocol is "standard" or "ecp".
	Protocol string `json:"protocol"`
	// Scale multiplies the preset's instruction budget (0 means 1.0,
	// the paper's full budgets — minutes of simulation).
	Scale float64 `json:"scale,omitempty"`
	// Instructions overrides Scale with an absolute budget.
	Instructions int64 `json:"instructions,omitempty"`
	// CheckpointHz is the recovery-point frequency (ECP only).
	CheckpointHz float64 `json:"hz,omitempty"`
	// CheckpointInterval overrides CheckpointHz with a period in cycles.
	CheckpointInterval int64 `json:"checkpoint_interval,omitempty"`
	// Seed makes the run deterministic (and is part of the cache key).
	Seed uint64 `json:"seed,omitempty"`
	// Modern selects the faster-processor preset (ignored with Arch).
	Modern bool `json:"modern,omitempty"`
	// Arch overrides the derived architecture with explicit parameters.
	Arch *config.Arch `json:"arch,omitempty"`
	// Failures is the scripted failure schedule (ECP only); it is
	// canonicalised into time order.
	Failures []config.FailureEvent `json:"failures,omitempty"`
	// Ablation switches.
	NoReplicationReuse bool `json:"no_replication_reuse,omitempty"`
	NoSharedCKReads    bool `json:"no_shared_ck_reads,omitempty"`
	// NoOracle disables end-to-end value verification (on by default).
	NoOracle bool `json:"no_oracle,omitempty"`
	// Strict and Invariants enable the slow correctness machinery.
	Strict     bool `json:"strict,omitempty"`
	Invariants bool `json:"invariants,omitempty"`
	// MaxCycles aborts runaway simulations (0: a generous default).
	MaxCycles int64 `json:"max_cycles,omitempty"`

	// DeadlineMS bounds the time a job may wait in the queue: a job
	// still queued after this many wall milliseconds fails instead of
	// running. 0 means no deadline. Not part of the run identity.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Progress attaches an observability bridge to the run so the
	// job's SSE stream carries live checkpoint/fault/rollback progress.
	// Costs a few percent of simulation throughput; never changes the
	// result (the observability layer is stats-neutral). Not part of
	// the run identity.
	Progress bool `json:"progress,omitempty"`
}

// Geometry bounds on a spec. machine.New allocates every node's
// attraction-memory frames and cache lines up front, so without them a
// request could make a daemon allocate without limit. They sit far
// above every machine in the repository: at most 56 nodes, 512 AM
// frames, 65,536 AM items and 4,096 cache lines per node.
const (
	maxNodes      = 256
	maxAMFrames   = 1 << 13
	maxAMItems    = 1 << 20
	maxCacheLines = 1 << 15
)

// Validate checks the spec and returns a descriptive error for the
// first violated constraint.
func (sp JobSpec) Validate() error {
	if _, ok := workload.ByName(sp.App); !ok {
		return fmt.Errorf("unknown app %q", sp.App)
	}
	protocol, ok := coherence.ParseProtocol(sp.Protocol)
	if !ok {
		return fmt.Errorf("unknown protocol %q (want standard or ecp)", sp.Protocol)
	}
	if sp.Scale < 0 || sp.Instructions < 0 {
		return fmt.Errorf("negative instruction budget")
	}
	if sp.CheckpointHz < 0 || sp.CheckpointInterval < 0 {
		return fmt.Errorf("negative checkpoint frequency")
	}
	if sp.MaxCycles < 0 || sp.DeadlineMS < 0 {
		return fmt.Errorf("negative limit")
	}
	nodes := sp.Nodes
	if a := sp.Arch; a != nil {
		if err := a.Validate(); err != nil {
			return err
		}
		nodes = a.Nodes
		switch {
		case a.AMFrames() > maxAMFrames:
			return fmt.Errorf("AM frames = %d per node, at most %d", a.AMFrames(), maxAMFrames)
		case a.AMSize/a.ItemSize > maxAMItems:
			return fmt.Errorf("AM items = %d per node, at most %d", a.AMSize/a.ItemSize, maxAMItems)
		case a.CacheLines() > maxCacheLines:
			return fmt.Errorf("cache lines = %d per node, at most %d", a.CacheLines(), maxCacheLines)
		}
	} else if sp.Nodes < 1 {
		return fmt.Errorf("nodes = %d, need >= 1", sp.Nodes)
	}
	if nodes > maxNodes {
		return fmt.Errorf("nodes = %d, at most %d", nodes, maxNodes)
	}
	if err := sp.schedule().Validate(nodes); err != nil {
		return err
	}
	return machine.CheckRecovery(protocol, nodes, sp.CheckpointInterval, sp.CheckpointHz, len(sp.Failures) > 0)
}

// schedule returns the spec's failures in time order: the schedule the
// identity carries, so specs that list one schedule in different orders
// share a content address, and Validate names its events by their
// position in it.
func (sp JobSpec) schedule() fault.Plan {
	p := fault.Plan(slices.Clone(sp.Failures))
	p.Sort()
	return p
}

// Identity canonicalises a validated spec into the repository-wide run
// identity (internal/config): scaling is resolved to an absolute
// instruction budget, the architecture to a full parameter set, and the
// failure schedule to time order, so every spec that means the same run
// hashes to the same content address. Fields that do not influence the
// result (DeadlineMS, Progress) are excluded by construction.
func (sp JobSpec) Identity(revision string) (config.RunIdentity, error) {
	if err := sp.Validate(); err != nil {
		return config.RunIdentity{}, err
	}
	app, _ := workload.ByName(sp.App)
	instructions := sp.Instructions
	if instructions == 0 {
		instructions = app.Instructions
		if sp.Scale > 0 {
			instructions = app.Scale(sp.Scale).Instructions
		}
	}
	var arch config.Arch
	switch {
	case sp.Arch != nil:
		arch = *sp.Arch
	case sp.Modern:
		arch = config.Modern(sp.Nodes)
	default:
		arch = config.KSR1(sp.Nodes)
	}
	return config.RunIdentity{
		Revision:           revision,
		Arch:               arch,
		Protocol:           sp.Protocol,
		NoReplicationReuse: sp.NoReplicationReuse,
		NoSharedCKReads:    sp.NoSharedCKReads,
		App:                sp.App,
		Instructions:       instructions,
		Seed:               sp.Seed,
		CheckpointHz:       sp.CheckpointHz,
		CheckpointInterval: sp.CheckpointInterval,
		Failures:           sp.schedule(),
		Oracle:             !sp.NoOracle,
		Strict:             sp.Strict,
		Invariants:         sp.Invariants,
		// The identity names the cap the machine applies, so a spec
		// without one digests as one with machine.DefaultMaxCycles.
		MaxCycles: cmp.Or(sp.MaxCycles, machine.DefaultMaxCycles),
	}, nil
}

// JobEvent is one element of a job's SSE stream. Seq is the position in
// the job's event log (SSE id:), so a late subscriber replays the full
// history in order before following live events.
type JobEvent struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // "state" or "progress"
	// State accompanies "state" events.
	State State `json:"state,omitempty"`
	// Message is a human-readable progress line.
	Message string `json:"message,omitempty"`
	// SimCycles stamps "progress" events with the simulated time they
	// were observed at.
	SimCycles int64 `json:"sim_cycles,omitempty"`
	// Error accompanies the failed state.
	Error string `json:"error,omitempty"`
}

// JobStatus is the wire format of a job in responses.
type JobStatus struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	App      string `json:"app"`
	Protocol string `json:"protocol"`
	Nodes    int    `json:"nodes"`
	Seed     uint64 `json:"seed"`
	// Cache reports how a submission resolved: "hit" (served from the
	// store), "join" (coalesced onto an identical in-flight job) or
	// "miss" (a new simulation). Submission responses only.
	Cache string `json:"cache,omitempty"`
	Error string `json:"error,omitempty"`
	// Worker is the node currently holding the job's lease (cluster
	// mode, running jobs only); Requeues counts lease expiries survived.
	Worker   string `json:"worker,omitempty"`
	Requeues int    `json:"requeues,omitempty"`
	// QueueMS and RunMS are wall-clock durations, present once known.
	QueueMS float64 `json:"queue_ms,omitempty"`
	RunMS   float64 `json:"run_ms,omitempty"`
	// Result is the canonical result payload (terminal done jobs only,
	// and only where the endpoint includes it). Byte-identical across
	// every response for the same job.
	Result json.RawMessage `json:"result,omitempty"`
}

// job is the server-side state of one accepted run. All fields after
// the immutable header are guarded by the owning Server's mutex; done
// is closed exactly once, on the transition to a terminal state.
type job struct {
	// Immutable after creation.
	id       string
	spec     JobSpec
	identity config.RunIdentity
	deadline time.Time // zero: none

	state    State
	errMsg   string
	result   []byte // canonical payload; shared with the store
	pinned   bool   // an async submission exists: never cancel on disconnect
	interest int    // waiting submissions with cancel-on-disconnect semantics

	// Lease state (zero for jobs run by in-process executors).
	workerID string // current lease holder while running
	attempts int    // lease expiries so far; > MaxRequeues dead-letters

	queuedAt   time.Time
	startedAt  time.Time
	finishedAt time.Time

	events []JobEvent
	wake   chan struct{} // closed and replaced on every event append
	done   chan struct{} // closed on terminal transition

	// ctl is the live-inspection controller while the job is running
	// (set by the runner callback, cleared on completion). Handlers
	// snapshot it under the server mutex and then talk to it directly —
	// the controller has its own synchronisation.
	ctl *inspect.Controller

	// Per-job /metrics scrape state: the event count and wall time of
	// the previous scrape, for the events-per-second gauge. Wall clock
	// is legal here — this is the serving layer, not the simulator.
	scrapeAt     int64 // unix milliseconds; 0 until first scrape
	scrapeEvents int64
}

// newJob creates a job with no state yet; the caller moves it into its
// first state with setStateLocked.
func newJob(id string, spec JobSpec, identity config.RunIdentity, now time.Time) *job {
	return &job{
		id:       id,
		spec:     spec,
		identity: identity,
		queuedAt: now,
		wake:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// status snapshots the job for a response; the caller holds the server
// mutex. includeResult attaches the result payload for done jobs.
func (j *job) status(includeResult bool) JobStatus {
	st := JobStatus{
		ID:       j.id,
		State:    j.state,
		App:      j.spec.App,
		Protocol: j.identity.Protocol,
		Nodes:    j.identity.Arch.Nodes,
		Seed:     j.identity.Seed,
		Error:    j.errMsg,
		Requeues: j.attempts,
	}
	if j.state == StateRunning {
		st.Worker = j.workerID
	}
	if !j.startedAt.IsZero() {
		st.QueueMS = msBetween(j.queuedAt, j.startedAt)
	}
	if !j.finishedAt.IsZero() && !j.startedAt.IsZero() {
		st.RunMS = msBetween(j.startedAt, j.finishedAt)
	}
	if includeResult && j.state == StateDone {
		st.Result = j.result
	}
	return st
}

func msBetween(a, b time.Time) float64 {
	return float64(b.Sub(a).Nanoseconds()) / 1e6
}
