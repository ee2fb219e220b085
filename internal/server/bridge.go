package server

import (
	"fmt"
	"sync/atomic"

	"coma/internal/obs"
)

// progressBridge adapts the simulator's observability stream into the
// daemon's telemetry. Every event increments a per-kind counter exported
// on /metrics as coma_obs_events_total (one atomic add, no lock, so the
// hot path stays cheap). When publish is set (the job asked for
// progress streaming), the low-frequency lifecycle kinds (checkpoint
// rounds, commits, faults, rollbacks, reconfiguration) are additionally
// forwarded to the job's SSE event log; the per-reference hot-path
// kinds are dropped with a single switch.
//
// Events are stamped with simulated time only (the obswallclock
// analyzer enforces that no method of this type reads the wall clock);
// the wall-clock job timeline lives on the job itself.
type progressBridge struct {
	counts  *[obs.NumKinds]int64 // per-kind event tally, atomic
	publish func(msg string, simCycles int64)
}

// Emit implements obs.Observer.
func (b *progressBridge) Emit(e obs.Event) {
	if b.counts != nil && int(e.Kind) < len(b.counts) {
		atomic.AddInt64(&b.counts[e.Kind], 1)
	}
	if b.publish == nil {
		return
	}
	switch e.Kind {
	case obs.KRoundBegin:
		b.publish(fmt.Sprintf("%s round %d begin", roundMode(e.A), e.B), e.Time)
	case obs.KRoundQuiesced:
		b.publish(fmt.Sprintf("round %d quiesced", e.B), e.Time)
	case obs.KCommitted:
		b.publish(fmt.Sprintf("recovery point %d committed", e.B), e.Time)
	case obs.KRoundEnd:
		b.publish(fmt.Sprintf("%s round %d end", roundMode(e.A), e.B), e.Time)
	case obs.KFault:
		b.publish(fmt.Sprintf("node %d failed (%s)", e.Node, permanence(e.A)), e.Time)
	case obs.KRollback:
		b.publish(fmt.Sprintf("rollback on node %d: %d items dropped", e.Node, e.A), e.Time)
	case obs.KReconfig:
		b.publish(fmt.Sprintf("node %d reconfigured: %d copies re-created", e.Node, e.A), e.Time)
	case obs.KState, obs.KReadFill, obs.KWriteFill, obs.KInjectProbe,
		obs.KInjectAccept, obs.KPhaseBegin, obs.KPhaseEnd, obs.KQueueDepth,
		obs.KTxnBegin, obs.KTxnHop, obs.KTxnEnd:
		// Hot-path kinds: dropped.
	}
}

func roundMode(a int64) string {
	if a == 0 {
		return "checkpoint"
	}
	return "recovery"
}

func permanence(a int64) string {
	if a != 0 {
		return "permanent"
	}
	return "transient"
}
