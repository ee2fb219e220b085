// Package fault builds and checks failure plans for the simulated
// machine: exponential (MTBF) schedules — the failure model under which
// the paper motivates backward error recovery for large machines — and
// the one validation every scripted or drawn schedule passes before a
// machine runs it. Plans are deterministic given a seed.
package fault

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"coma/internal/config"
	"coma/internal/sim"
)

// Plan is a failure schedule: one config.FailureEvent per node failure.
type Plan []config.FailureEvent

// Validate checks that every failure names a node of a nodes-node
// machine and a cycle of 0 or later. It is the one check of a failure
// schedule: machine.New and the daemon's JobSpec.Validate both call it.
// Order is not checked: the coordinator arms each failure on the timing
// wheel by its cycle, so a plan in any order fires in time order
// (failures at one cycle in the order given). Simultaneous failures are
// legal: Exponential can draw coincident events, and overlapping
// failures are exactly how data-loss experiments defeat the two-copy
// scheme on purpose (the machine reports ErrDataLoss at run time when
// that happens).
func (p Plan) Validate(nodes int) error {
	for i, e := range p {
		if e.Node < 0 || e.Node >= nodes {
			return fmt.Errorf("fault: event %d names node n%d of %d", i, e.Node, nodes)
		}
		if e.At < 0 {
			return fmt.Errorf("fault: event %d at negative time %d", i, e.At)
		}
	}
	return nil
}

// Exponential draws failures with exponentially distributed
// inter-arrival times of the given mean (an MTBF model over the whole
// machine), uniformly choosing the victim node, within [0, horizon). All
// failures are transient unless permanentFrac of them (randomly chosen)
// are permanent; a node is made permanent at most once and never after
// it already failed permanently.
func Exponential(seed uint64, nodes int, meanCycles, horizon int64, permanentFrac float64) Plan {
	if nodes < 1 || meanCycles <= 0 || horizon <= 0 {
		return nil
	}
	rng := sim.NewRNG(seed)
	var plan Plan
	deadPerm := make(map[int]bool)
	t := int64(0)
	for {
		u := rng.Float64()
		if u < 1e-12 {
			u = 1e-12
		}
		t += int64(-math.Log(u) * float64(meanCycles))
		if t >= horizon {
			break
		}
		n := rng.Intn(nodes)
		if deadPerm[n] {
			continue
		}
		perm := rng.Bool(permanentFrac)
		if perm {
			deadPerm[n] = true
		}
		plan = append(plan, config.FailureEvent{At: t, Node: n, Permanent: perm})
	}
	return plan
}

// Sort orders a plan by time (stable on node id for equal times).
func (p Plan) Sort() {
	slices.SortStableFunc(p, func(a, b config.FailureEvent) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Node, b.Node))
	})
}

// PermanentCount returns the number of permanent failures in the plan.
func (p Plan) PermanentCount() int {
	c := 0
	for _, e := range p {
		if e.Permanent {
			c++
		}
	}
	return c
}
