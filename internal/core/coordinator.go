// Package core implements the backward-error-recovery layer on top of the
// extended coherence protocol — the paper's contribution as orchestration:
// the coordinated two-phase (create/commit) recovery-point establishment
// (§3.3), the global rollback and reconfiguration after node failures
// (§3.4), and the recovery-data invariants the protocol must maintain.
//
// The Coordinator quiesces the processors (pending transactions drain,
// caches flush), drives every node's create phase in parallel, runs the
// global barrier, then the local commit phases, and accounts the paper's
// T_create and T_commit stall windows. Failures are detected at phase
// boundaries (fail-silent nodes; detection machinery is out of the
// paper's scope) and trigger rollback to the last committed recovery
// point plus reconfiguration re-establishing two copies of all recovery
// data.
package core

import (
	"fmt"

	"coma/internal/coherence"
	"coma/internal/mesh"
	"coma/internal/obs"
	"coma/internal/proto"
	"coma/internal/sim"
	"coma/internal/stats"
)

// NodeOps is what the coordinator needs from a node beyond the coherence
// engine: control of its processor cache.
type NodeOps interface {
	ID() proto.NodeID
	// FlushCache writes dirty lines back to the local AM and drops write
	// permission (data stays readable, per §4.2.3).
	FlushCache(p *sim.Process)
	// ClearCache empties the cache (rollback).
	ClearCache()
}

// Failure describes one injected node failure.
type Failure struct {
	Node      proto.NodeID
	Permanent bool
}

// Hooks are machine-level callbacks at recovery-point boundaries.
type Hooks struct {
	// OnCommit runs at the instant a recovery point commits; the machine
	// snapshots workload generators and the value oracle here.
	OnCommit func()
	// OnRollback runs at the instant a rollback (plus reconfiguration)
	// completes. dropped lists the items discarded because no recovery
	// copy survived — legitimately for items created after the last
	// recovery point, fatally for committed items (multiple overlapping
	// failures); the machine distinguishes the two. dropped is valid only
	// during the call: the next rollback reuses its array.
	OnRollback func(dropped []proto.ItemID, failures []Failure)
}

type roundMode uint8

const (
	roundCheckpoint roundMode = iota
	roundRecovery
)

// counter completes a future when `need` arrivals have occurred.
type counter struct {
	need int
	got  int
	fut  sim.Future[int]
}

// arm starts a new gather of need arrivals. The future may still be
// pending only when nobody awaits it: a commit-boundary abort re-arms
// the phase-2 gather before any participant has reached it.
func (c *counter) arm(eng *sim.Engine, need int) {
	if c.fut.Done() {
		c.fut.Reset()
	}
	c.need, c.got = need, 0
	if need == 0 {
		c.fut.Complete(eng, 0)
	}
}

func (c *counter) arrive(eng *sim.Engine) {
	c.got++
	if c.got >= c.need && !c.fut.Done() {
		c.fut.Complete(eng, c.got)
	}
}

// Coordinator drives recovery-point establishment and failure recovery
// for one machine.
type Coordinator struct {
	eng      *sim.Engine
	coh      *coherence.Engine
	net      *mesh.Network
	interval int64
	hooks    Hooks
	ck       stats.Checkpointing

	nodes    int
	alive    []bool
	deadPerm []bool
	finished []bool
	lastDone []int64

	pauseRequested bool
	round          int64
	mode           roundMode

	// The round's counters and gates live as long as the coordinator
	// and are re-armed each round, so their waiter lists are grown once.
	quiesce, phase1, phase2    counter
	gateStart, gateMid, gateUp sim.Gate
	// gateMid2 is the mid-phase gate of a recovery that replaced an
	// establishment at the commit boundary: gateMid has already been
	// consumed releasing the participants into the abort path.
	gateMid2 sim.Gate

	pendingFailures []Failure
	failedThisRound []bool
	wake            *sim.Future[struct{}]
	lastCkpt        int64

	// Typed-event bookkeeping (the coordinator is a sim.EventSink, so
	// its timers never allocate per-event closures): armed holds
	// scheduled failures, addressed by the event arg; sleepGen numbers
	// sleepUntil timers so a stale round-due event (negative arg) from a
	// superseded sleep is ignored.
	armed    []Failure
	sleepGen int64

	// Application-level barrier (workload Barrier references).
	abRound   int64
	abArrived int
	abWaiters []*sim.Process

	// Finished processors parked in ServeRounds.
	idleWaiters []*sim.Process

	// obsv, when set, receives round, fault and rollback events.
	obsv obs.Observer
	// txnSeq numbers the coordinator's round transactions; it is only
	// advanced when an observer is attached, so untraced runs are
	// byte-identical to traced ones in every other respect.
	txnSeq   int64
	roundTxn proto.TxnID
	roundT0  int64
}

// NewCoordinator builds the recovery coordinator. interval is the cycles
// between recovery points (0 disables periodic establishment; recovery on
// failure still works if the protocol is the ECP).
func NewCoordinator(eng *sim.Engine, coh *coherence.Engine, net *mesh.Network,
	nodes int, interval int64, hooks Hooks) *Coordinator {

	co := &Coordinator{
		eng:             eng,
		coh:             coh,
		net:             net,
		interval:        interval,
		hooks:           hooks,
		nodes:           nodes,
		alive:           make([]bool, nodes),
		deadPerm:        make([]bool, nodes),
		finished:        make([]bool, nodes),
		lastDone:        make([]int64, nodes),
		failedThisRound: make([]bool, nodes),
	}
	for i := range co.alive {
		co.alive[i] = true
		co.lastDone[i] = -1
	}
	return co
}

// Stats returns the checkpoint accounting so far.
func (co *Coordinator) Stats() stats.Checkpointing { return co.ck }

// PhaseSnapshot is a read-only view of the coordinator's round state
// for the live-inspection layer. Counter fields report barrier
// progress: Got arrivals out of Need for the quiesce gather and the two
// establishment/recovery phases of the round in flight (all zero
// between rounds, when the counters of the previous round have been
// replaced).
type PhaseSnapshot struct {
	Round           int64
	Recovery        bool // current round is a rollback, not an establishment
	PauseRequested  bool
	QuiesceGot      int
	QuiesceNeed     int
	Phase1Got       int
	Phase1Need      int
	Phase2Got       int
	Phase2Need      int
	LiveNodes       int
	PendingFailures int
}

// Snapshot reports the coordinator's current round state. Read-only;
// called by the live-inspection layer at engine safe points.
func (co *Coordinator) Snapshot() PhaseSnapshot {
	s := PhaseSnapshot{
		Round:           co.round,
		Recovery:        co.mode == roundRecovery,
		PauseRequested:  co.pauseRequested,
		PendingFailures: len(co.pendingFailures),
	}
	s.QuiesceGot, s.QuiesceNeed = co.quiesce.got, co.quiesce.need
	s.Phase1Got, s.Phase1Need = co.phase1.got, co.phase1.need
	s.Phase2Got, s.Phase2Need = co.phase2.got, co.phase2.need
	for _, alive := range co.alive {
		if alive {
			s.LiveNodes++
		}
	}
	return s
}

// SetObserver installs the observability sink (nil disables it).
func (co *Coordinator) SetObserver(o obs.Observer) { co.obsv = o }

// Alive reports whether a node is still a live member.
func (co *Coordinator) Alive(n proto.NodeID) bool { return co.alive[n] }

// Start spawns the coordinator process. Call once, before the engine runs.
func (co *Coordinator) Start() {
	co.eng.Spawn("ckpt-coordinator", co.loop)
}

// ScheduleFailure injects a node failure at absolute cycle t. The
// coordinator quiesces in-flight transactions, then applies the failure
// and runs rollback + reconfiguration (detection at the next phase
// boundary; see DESIGN.md).
func (co *Coordinator) ScheduleFailure(t int64, f Failure) {
	co.armed = append(co.armed, f)
	co.eng.At(t, co, int64(len(co.armed)-1))
}

// OnEvent implements sim.EventSink for the coordinator's two timer
// kinds: a non-negative arg indexes an armed failure to inject now; a
// negative arg is a sleepUntil round-due timer carrying its generation.
func (co *Coordinator) OnEvent(_ *sim.Engine, arg int64) {
	if arg >= 0 {
		co.pendingFailures = append(co.pendingFailures, co.armed[arg])
		if co.wake != nil && !co.wake.Done() {
			co.wake.Complete(co.eng, struct{}{})
		}
		return
	}
	if -arg == co.sleepGen && co.wake != nil && !co.wake.Done() {
		co.wake.Complete(co.eng, struct{}{})
	}
}

// ProcessorFinished records that a node's workload ended. The node's
// process must then call ServeRounds: its attraction memory still holds
// live state, so it keeps participating in checkpoint and recovery
// rounds until the whole machine stops.
func (co *Coordinator) ProcessorFinished(n proto.NodeID) {
	co.finished[n] = true
	co.maybeOpenAppBarrier()
}

// participants returns the number of processors that must take part in a
// round: every live node, finished or not (a finished node's AM is still
// part of the recoverable state).
func (co *Coordinator) participants() int {
	c := 0
	for i := range co.alive {
		if co.alive[i] {
			c++
		}
	}
	return c
}

// computing returns the number of live processors still executing their
// workload (the application-barrier population).
func (co *Coordinator) computing() int {
	c := 0
	for i := range co.alive {
		if co.alive[i] && !co.finished[i] {
			c++
		}
	}
	return c
}

// ServeRounds is the post-workload service loop of a node's processor:
// it keeps the node participating in checkpoint and recovery rounds. It
// returns false if the node died permanently, and true if a rollback
// restored the node's workload to a pre-completion state (the processor
// must resume computing). At machine shutdown a parked process is reaped
// by the engine.
func (co *Coordinator) ServeRounds(p *sim.Process, ops NodeOps) bool {
	n := ops.ID()
	for {
		if co.deadPerm[n] {
			return false
		}
		if !co.finished[n] {
			return true // resurrected by a rollback
		}
		if co.pauseRequested && co.lastDone[n] != co.round {
			if !co.Participate(p, ops) {
				return false
			}
			continue
		}
		co.idleWaiters = append(co.idleWaiters, p)
		p.Park()
	}
}

// PauseRequested reports whether processors must enter Participate at
// their next safe point. Node processor loops poll this between
// references.
func (co *Coordinator) PauseRequested() bool { return co.pauseRequested }

// Participate is called by a node's processor when PauseRequested is
// true (or when kicked out of an application barrier): the node takes
// part in every outstanding round. It returns false if the node died
// permanently and its processor must stop.
func (co *Coordinator) Participate(p *sim.Process, ops NodeOps) bool {
	n := ops.ID()
	for co.pauseRequested && co.lastDone[n] != co.round {
		co.participateRound(p, ops)
		if co.deadPerm[n] {
			return false
		}
	}
	return true
}

func (co *Coordinator) participateRound(p *sim.Process, ops NodeOps) {
	n := ops.ID()
	round := co.round
	gateStart, gateMid, gateUp := &co.gateStart, &co.gateMid, &co.gateUp

	ops.FlushCache(p)
	co.quiesce.arrive(co.eng)
	// The coordinator re-arms the phase counters between the quiesce
	// barrier and gateStart opening, and can convert a checkpoint round
	// into a recovery round in that window (failure during quiesce).
	gateStart.Wait(p)

	if co.deadPerm[n] {
		co.lastDone[n] = round
		return
	}

	switch co.mode {
	case roundCheckpoint:
		co.coh.CreatePhase(p, n)
		co.phase1.arrive(co.eng)
		gateMid.Wait(p)
		if co.mode == roundRecovery {
			// A failure during the create phase aborted the establishment
			// at the commit boundary: the round continues as a recovery.
			// The coordinator re-armed the phase counters (survivors may
			// have shrunk) before opening gateMid.
			if co.deadPerm[n] {
				co.lastDone[n] = round
				return
			}
			co.coh.RecoveryScan(p, n)
			ops.ClearCache()
			co.phase1.arrive(co.eng)
			co.gateMid2.Wait(p)
			co.coh.ReconfigureNode(p, n, co.lostMemory)
			co.phase2.arrive(co.eng)
			break
		}
		co.coh.CommitScan(p, n)
		co.phase2.arrive(co.eng)
	case roundRecovery:
		co.coh.RecoveryScan(p, n)
		ops.ClearCache()
		co.phase1.arrive(co.eng)
		gateMid.Wait(p)
		co.coh.ReconfigureNode(p, n, co.lostMemory)
		co.phase2.arrive(co.eng)
	}
	gateUp.Wait(p)
	co.lastDone[n] = round
}

func (co *Coordinator) isDead(n proto.NodeID) bool {
	return n == proto.None || !co.alive[n]
}

// lostMemory reports whether a node's AM contents were destroyed by the
// failure round in progress: permanently dead nodes and transiently
// failed (rebooted, memory cleared) nodes alike. Recovery pairs with a
// partner in this set must be re-replicated even though a transient
// partner is alive again.
func (co *Coordinator) lostMemory(n proto.NodeID) bool {
	if n == proto.None || !co.alive[n] {
		return true
	}
	return co.failedThisRound[n]
}

// loop is the coordinator process body.
func (co *Coordinator) loop(p *sim.Process) {
	for {
		var due int64 = -1
		if co.interval > 0 {
			due = co.lastCkpt + co.interval
		}
		co.sleepUntil(p, due)
		if len(co.pendingFailures) > 0 {
			co.runRecovery(p)
			continue
		}
		if due >= 0 && p.Now() >= due {
			co.runCheckpoint(p)
		}
	}
}

// sleepUntil parks the coordinator until the given absolute time (or
// forever if negative), returning early when a failure is injected.
func (co *Coordinator) sleepUntil(p *sim.Process, due int64) {
	if len(co.pendingFailures) > 0 {
		return
	}
	if due >= 0 && p.Now() >= due {
		return
	}
	fut := sim.NewFuture[struct{}]()
	co.wake = fut
	if due >= 0 {
		co.sleepGen++
		co.eng.At(due, co, -co.sleepGen)
	}
	fut.Await(p)
	co.wake = nil
}

// beginRound sets up the gates and counters shared by all participants.
func (co *Coordinator) beginRound(mode roundMode) {
	co.round++
	co.mode = mode
	co.pauseRequested = true
	if co.obsv != nil {
		co.txnSeq++
		co.roundTxn = proto.MakeTxnID(proto.None, co.txnSeq)
		co.roundT0 = co.eng.Now()
		co.coh.SetRoundTxn(co.roundTxn)
		op := int64(obs.TxnCkptRound)
		if mode == roundRecovery {
			op = obs.TxnRecoveryRound
		}
		co.obsv.Emit(obs.Event{Time: co.eng.Now(), Kind: obs.KTxnBegin,
			Node: proto.None, Item: proto.NoItem, Txn: co.roundTxn, A: op})
		co.obsv.Emit(obs.Event{Time: co.eng.Now(), Kind: obs.KRoundBegin,
			Node: proto.None, Item: proto.NoItem, Txn: co.roundTxn, A: int64(mode), B: co.round})
	}
	co.quiesce.arm(co.eng, co.participants())
	co.gateStart.Close()
	co.gateMid.Close()
	co.gateUp.Close()
	co.gateMid2.Close()
	co.kickAppBarrier()
	co.kickIdle()
	// Broadcast the control message (timing traffic only; the gates and
	// counters are the simulator's mechanism).
	kind := proto.MsgCkptPrepare
	if mode == roundRecovery {
		kind = proto.MsgRecover
	}
	for i := 0; i < co.nodes; i++ {
		n := proto.NodeID(i)
		if co.alive[n] && n != 0 {
			co.net.Send(mesh.Message{Kind: kind, Src: 0, Dst: n, Txn: co.roundTxn})
		}
	}
}

// kickIdle wakes finished processors so they participate in the round.
func (co *Coordinator) kickIdle() {
	for _, w := range co.idleWaiters {
		co.eng.WakeNow(w)
	}
	clear(co.idleWaiters)
	co.idleWaiters = co.idleWaiters[:0]
}

// runCheckpoint establishes one recovery point (§3.3).
func (co *Coordinator) runCheckpoint(p *sim.Process) {
	co.lastCkpt = p.Now()
	if co.participants() == 0 {
		return
	}
	// During the create phase an item can need four copies on distinct
	// nodes (old Inv-CK pair plus new Pre-Commit pair); a machine shrunk
	// below four live nodes by permanent failures cannot establish new
	// recovery points — the last committed one keeps protecting it.
	if co.participants() < 4 {
		co.ck.Skipped++
		return
	}
	co.beginRound(roundCheckpoint)
	co.quiesce.fut.Await(p)
	if co.obsv != nil {
		co.obsv.Emit(obs.Event{Time: p.Now(), Kind: obs.KRoundQuiesced,
			Node: proto.None, Item: proto.NoItem, Txn: co.roundTxn, B: co.round})
	}

	// A failure injected during quiesce aborts the establishment: the
	// previous recovery point is still intact (the paper's create-phase
	// atomicity argument); recovery runs instead.
	if len(co.pendingFailures) > 0 {
		co.abortRoundIntoRecovery(p)
		return
	}

	survivors := co.participants()
	co.phase1.arm(co.eng, survivors)
	co.phase2.arm(co.eng, survivors)

	tCreate := p.Now()
	co.gateStart.Open(co.eng)
	co.phase1.fut.Await(p)

	tCommit := p.Now()
	co.ck.CreateCycles += tCommit - tCreate

	// A failure during the create phase aborts at the commit boundary:
	// the pre-commit pairs are discarded by a recovery scan (the paper's
	// PreCommit -> Invalid edges) and the previous recovery point keeps
	// protecting the machine. Failures arriving once the commit scans
	// have started stay pending until after the round: the establishment
	// is atomic from this point on.
	if len(co.pendingFailures) > 0 {
		co.abortAtCommitBoundary(p)
		return
	}

	co.gateMid.Open(co.eng)
	co.phase2.fut.Await(p)
	co.ck.CommitCycles += p.Now() - tCommit
	co.ck.Established++

	if co.obsv != nil {
		co.obsv.Emit(obs.Event{Time: p.Now(), Kind: obs.KCommitted,
			Node: proto.None, Item: proto.NoItem, Txn: co.roundTxn, B: co.round})
	}
	if co.hooks.OnCommit != nil {
		co.hooks.OnCommit()
	}
	co.pauseRequested = false
	co.gateUp.Open(co.eng)
	co.lastCkpt = p.Now()
	if co.obsv != nil {
		co.obsv.Emit(obs.Event{Time: p.Now(), Kind: obs.KRoundEnd,
			Node: proto.None, Item: proto.NoItem, Txn: co.roundTxn, A: int64(roundCheckpoint), B: co.round})
		co.endRoundTxn(p.Now(), roundCheckpoint)
	}
}

// abortRoundIntoRecovery converts an in-progress checkpoint round (still
// at the quiesce barrier) into a recovery round: nothing was created yet,
// so the previous recovery point is untouched.
func (co *Coordinator) abortRoundIntoRecovery(p *sim.Process) {
	co.ck.Aborted++
	// Release the quiesced processors straight into a new round: rewire
	// this round as a recovery round. Processors are parked at
	// gateStart; mode and counters may be swapped before it opens.
	co.finishRecovery(p)
}

// runRecovery quiesces, applies pending failures, and restores the last
// recovery point (§3.4).
func (co *Coordinator) runRecovery(p *sim.Process) {
	if co.participants() == 0 {
		co.pendingFailures = nil
		return
	}
	co.beginRound(roundRecovery)
	co.quiesce.fut.Await(p)
	if co.obsv != nil {
		co.obsv.Emit(obs.Event{Time: p.Now(), Kind: obs.KRoundQuiesced,
			Node: proto.None, Item: proto.NoItem, Txn: co.roundTxn, B: co.round})
	}
	co.finishRecovery(p)
}

// applyPendingFailures consumes the pending failure list: it marks the
// round's failed-memory set, emits the fault events, clears the failed
// AMs (fail-silent) and removes permanently dead nodes from membership.
func (co *Coordinator) applyPendingFailures(p *sim.Process) []Failure {
	failures := co.pendingFailures
	co.pendingFailures = nil

	for i := range co.failedThisRound {
		co.failedThisRound[i] = false
	}
	for _, f := range failures {
		if !co.finished[f.Node] || co.alive[f.Node] {
			co.failedThisRound[f.Node] = true
		}
	}
	for _, f := range failures {
		n := f.Node
		if co.obsv != nil {
			perm := int64(0)
			if f.Permanent {
				perm = 1
			}
			co.obsv.Emit(obs.Event{Time: p.Now(), Kind: obs.KFault,
				Node: n, Item: proto.NoItem, A: perm, B: co.round})
		}
		if co.finished[n] {
			continue
		}
		co.coh.AM(n).Clear() // fail-silent: AM contents are lost
		if f.Permanent {
			co.alive[n] = false
			co.deadPerm[n] = true
			co.net.SetDown(n, true)
			co.coh.Directory().SetAlive(n, false)
		}
	}
	return failures
}

// finishRecovery runs from the point where every participant is parked at
// gateStart: it applies the failures, drives the scan and reconfiguration
// phases, and resumes the machine.
func (co *Coordinator) finishRecovery(p *sim.Process) {
	co.mode = roundRecovery
	failures := co.applyPendingFailures(p)

	survivors := co.participants()
	co.phase1.arm(co.eng, survivors)
	co.phase2.arm(co.eng, survivors)

	co.gateStart.Open(co.eng)
	co.recoveryTail(p, failures, &co.gateMid)
}

// abortAtCommitBoundary converts an establishment whose create phase has
// completed — but whose commit has not begun — into a recovery round: a
// failure arrived while the pre-commit pairs were being created, so they
// are discarded by the recovery scans (the PreCommit -> Invalid edges)
// and the previous recovery point is restored. Participants are parked
// at gateMid; the counters must be recreated (the failure may have been
// permanent) before that gate releases them into the recovery path.
func (co *Coordinator) abortAtCommitBoundary(p *sim.Process) {
	co.ck.Aborted++
	co.mode = roundRecovery
	failures := co.applyPendingFailures(p)

	survivors := co.participants()
	co.phase1.arm(co.eng, survivors)
	co.phase2.arm(co.eng, survivors)

	co.gateMid.Open(co.eng)
	co.recoveryTail(p, failures, &co.gateMid2)
}

// recoveryTail drives a recovery round from the instant the participants
// start their recovery scans. midGate separates the scan phase from the
// reconfiguration phase (gateMid normally; gateMid2 when an aborted
// establishment already consumed gateMid).
func (co *Coordinator) recoveryTail(p *sim.Process, failures []Failure, midGate *sim.Gate) {
	co.phase1.fut.Await(p) // all scans done, caches cleared

	dropped := co.coh.RebuildDirectory()
	if co.obsv != nil {
		co.obsv.Emit(obs.Event{Time: p.Now(), Kind: obs.KRollback,
			Node: proto.None, Item: proto.NoItem, Txn: co.roundTxn, A: int64(len(dropped)), B: co.round})
	}
	for _, f := range failures {
		if !f.Permanent && !co.finished[f.Node] {
			co.coh.RestoreAnchors(p, f.Node)
		}
	}
	co.coh.RemapAnchors(p, co.isDead)

	midGate.Open(co.eng)
	co.phase2.fut.Await(p) // reconfiguration done: persistence restored

	if co.hooks.OnRollback != nil {
		co.hooks.OnRollback(dropped, failures)
	}
	// A rollback rewinds every surviving workload to the last committed
	// recovery point; processors that had already finished resume
	// computing from there.
	for i := range co.finished {
		if co.finished[i] && co.alive[i] {
			co.finished[i] = false
		}
	}
	co.ck.Recoveries++
	co.pauseRequested = false
	co.gateUp.Open(co.eng)
	co.maybeOpenAppBarrier()
	if co.obsv != nil {
		co.obsv.Emit(obs.Event{Time: p.Now(), Kind: obs.KRoundEnd,
			Node: proto.None, Item: proto.NoItem, Txn: co.roundTxn, A: int64(roundRecovery), B: co.round})
		co.endRoundTxn(p.Now(), roundRecovery)
	}
}

// endRoundTxn closes the round's transaction span and detaches it from
// the coherence engine. Only called when an observer is attached.
func (co *Coordinator) endRoundTxn(now int64, mode roundMode) {
	co.obsv.Emit(obs.Event{Time: now, Kind: obs.KTxnEnd,
		Node: proto.None, Item: proto.NoItem, Txn: co.roundTxn,
		A: int64(mode), B: now - co.roundT0})
	co.roundTxn = proto.NoTxn
	co.coh.SetRoundTxn(proto.NoTxn)
}

// AppBarrier implements the workload-level global barrier: the processor
// blocks until every live, unfinished processor arrives. Processors
// parked here still take part in checkpoint and recovery rounds. It
// returns false if the node died permanently while waiting.
func (co *Coordinator) AppBarrier(p *sim.Process, ops NodeOps) bool {
	round := co.abRound
	co.abArrived++
	co.maybeOpenAppBarrier()
	for co.abRound == round {
		// A checkpoint/recovery round may already be under way (it can
		// have started while this processor was draining its last work,
		// missing the kick): take part before parking, or the round
		// never completes.
		if co.pauseRequested && co.lastDone[ops.ID()] != co.round {
			if !co.Participate(p, ops) {
				// Retract the arrival only from the round it was
				// counted in: if that round opened while this node was
				// failing, abArrived already belongs to the next one.
				if co.abRound == round {
					co.abArrived--
					co.maybeOpenAppBarrier()
				}
				return false
			}
			continue
		}
		co.abWaiters = append(co.abWaiters, p)
		p.Park()
	}
	return true
}

// maybeOpenAppBarrier completes the application barrier round if every
// live unfinished processor has arrived (membership can shrink while
// processors wait).
func (co *Coordinator) maybeOpenAppBarrier() {
	if co.abArrived == 0 {
		return
	}
	if co.abArrived >= co.computing() {
		co.abRound++
		co.abArrived = 0
		co.kickAppBarrier()
	}
}

// kickAppBarrier wakes processors parked at the application barrier, to
// pass it or to take part in the starting round. The waiter list keeps
// its array: WakeNow only schedules a waiter, so none parks again while
// the list is walked.
func (co *Coordinator) kickAppBarrier() {
	for _, w := range co.abWaiters {
		co.eng.WakeNow(w)
	}
	clear(co.abWaiters)
	co.abWaiters = co.abWaiters[:0]
}

// String summarises coordinator state for diagnostics.
func (co *Coordinator) String() string {
	return fmt.Sprintf("coordinator{round=%d established=%d recoveries=%d}",
		co.round, co.ck.Established, co.ck.Recoveries)
}
