package model

import (
	"fmt"
	"io"
	"sort"

	"coma/internal/proto"
)

// CheckConfig sizes the abstract ECP configuration the model checker
// explores: k items replicated across n abstract nodes. Every protocol
// edge is a per-item property, so Items=1 already reaches the full edge
// set; Items=2 additionally exercises cross-item coupling through the
// shared checkpoint rounds. Nodes=4 is the smallest machine on which
// establishment never wedges (the paper's four-irreplaceable-pages
// argument); at Nodes=3 the checker reports create-phase dead ends.
type CheckConfig struct {
	Items int
	Nodes int
	// MaxStates aborts exploration beyond this many reachable states
	// (0 means the 4_000_000 default).
	MaxStates int
}

// Violation is one invariant breach with the action trace that reaches
// it from the initial (all-Invalid) configuration.
type Violation struct {
	Invariant string
	State     string
	Trace     []string
}

// CheckResult is the outcome of an exhaustive exploration.
type CheckResult struct {
	Config      CheckConfig
	States      int    // distinct reachable configurations
	Transitions int    // explored (state, action) pairs
	CreateStuck int    // states where an establishment cannot finish (Nodes < 4)
	Edges       *Table // protocol edges realised by some reachable transition
	Violations  []Violation
}

// Write renders the result deterministically.
func (r *CheckResult) Write(w io.Writer) {
	fmt.Fprintf(w, "model: %d items x %d nodes: %d states, %d transitions, %d edges\n",
		r.Config.Items, r.Config.Nodes, r.States, r.Transitions, r.Edges.Len())
	if r.CreateStuck > 0 {
		fmt.Fprintf(w, "  create-phase dead ends: %d (the ECP needs >= 4 nodes; only failure can unwedge these)\n",
			r.CreateStuck)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n    state: %s\n", v.Invariant, v.State)
		for _, step := range v.Trace {
			fmt.Fprintf(w, "    via: %s\n", step)
		}
	}
	r.Edges.Write(w)
}

// mstate is one packed configuration: byte 0 is the phase (0 normal,
// 1 establishing), then Items x Nodes slot states row-major. Partner
// pointers are not stored: the invariants keep every recovery-copy kind
// unique per item, so a copy's partner is the unique matching copy.
type mstate string

const (
	phaseNormal = 0
	phaseCkpt   = 1
)

type checker struct {
	k, n      int
	maxStates int

	edges       *Table
	seen        map[mstate]struct{}
	pred        map[mstate]predEntry
	queue       []mstate
	transitions int
	stuck       int
	violations  []Violation
}

type predEntry struct {
	prev   mstate
	action string
}

// Check explores every reachable configuration by BFS and returns the
// realised edge set plus any invariant violations.
func Check(cfg CheckConfig) (*CheckResult, error) {
	if cfg.Items < 1 || cfg.Nodes < 2 {
		return nil, fmt.Errorf("model: need at least 1 item and 2 nodes, have %d x %d", cfg.Items, cfg.Nodes)
	}
	max := cfg.MaxStates
	if max == 0 {
		max = 4_000_000
	}
	c := &checker{
		k: cfg.Items, n: cfg.Nodes, maxStates: max,
		edges: NewTable("model"),
		seen:  make(map[mstate]struct{}),
		pred:  make(map[mstate]predEntry),
	}
	init := c.initial()
	c.visit(init, "", "initial")
	for len(c.queue) > 0 {
		s := c.queue[0]
		c.queue = c.queue[1:]
		c.explore(s)
		if len(c.seen) > c.maxStates {
			return nil, fmt.Errorf("model: state space exceeds %d states at %d items x %d nodes",
				c.maxStates, cfg.Items, cfg.Nodes)
		}
	}
	sort.Slice(c.violations, func(i, j int) bool {
		if c.violations[i].Invariant != c.violations[j].Invariant {
			return c.violations[i].Invariant < c.violations[j].Invariant
		}
		return c.violations[i].State < c.violations[j].State
	})
	const maxReported = 10
	if len(c.violations) > maxReported {
		c.violations = c.violations[:maxReported]
	}
	return &CheckResult{
		Config:      cfg,
		States:      len(c.seen),
		Transitions: c.transitions,
		CreateStuck: c.stuck,
		Edges:       c.edges,
		Violations:  c.violations,
	}, nil
}

func (c *checker) initial() mstate {
	b := make([]byte, 1+c.k*c.n)
	return mstate(b)
}

func (c *checker) at(s []byte, i, j int) proto.State { return proto.State(s[1+i*c.n+j]) }
func (c *checker) set(s []byte, i, j int, st proto.State) {
	s[1+i*c.n+j] = byte(st)
}

// trace reconstructs the action path to a state for counterexamples.
func (c *checker) trace(s mstate) []string {
	var steps []string
	for {
		p, ok := c.pred[s]
		if !ok || p.action == "initial" {
			break
		}
		steps = append(steps, p.action)
		s = p.prev
	}
	for l, r := 0, len(steps)-1; l < r; l, r = l+1, r-1 {
		steps[l], steps[r] = steps[r], steps[l]
	}
	return steps
}

func (c *checker) violate(s mstate, inv string) {
	c.violations = append(c.violations, Violation{
		Invariant: inv,
		State:     c.render(s),
		Trace:     c.trace(s),
	})
}

// render prints a configuration compactly for diagnostics.
func (c *checker) render(s mstate) string {
	b := []byte(s)
	out := fmt.Sprintf("phase=%d", b[0])
	for i := 0; i < c.k; i++ {
		out += fmt.Sprintf(" item%d[", i)
		for j := 0; j < c.n; j++ {
			if j > 0 {
				out += " "
			}
			out += c.at(b, i, j).String()
		}
		out += "]"
	}
	return out
}

// visit enqueues a successor, recording the realised edges regardless of
// whether the state was seen before (an edge is reachable the first time
// any transition realises it).
func (c *checker) visit(next mstate, prev mstate, action string) {
	if _, ok := c.seen[next]; ok {
		return
	}
	c.seen[next] = struct{}{}
	if action != "initial" {
		c.pred[next] = predEntry{prev: prev, action: action}
	}
	c.checkInvariants(next)
	c.queue = append(c.queue, next)
}

// step applies one action: records its protocol edges and the successor.
func (c *checker) step(prev mstate, action string, next []byte, edges []proto.Edge) {
	c.transitions++
	for _, e := range edges {
		c.edges.Add(e, action)
	}
	c.visit(mstate(next), prev, action)
}

func (c *checker) copyOf(s mstate) []byte {
	b := make([]byte, len(s))
	copy(b, s)
	return b
}

// explore generates every enabled action of one configuration in a
// fixed, deterministic order.
func (c *checker) explore(s mstate) {
	b := []byte(s)
	phase := b[0]
	if phase == phaseNormal {
		for j := 0; j < c.n; j++ {
			for i := 0; i < c.k; i++ {
				c.read(s, i, j)
				c.write(s, i, j)
				c.evict(s, i, j)
			}
		}
		c.ckptBegin(s)
	} else {
		c.createSteps(s)
		c.commit(s)
	}
	for f := 0; f < c.n; f++ {
		c.fail(s, f)
	}
}

// viableTargets lists the nodes whose slot for the item may be
// overwritten by an injected copy (the paper's Invalid-or-Shared victim
// rule), in ring order from the source.
func (c *checker) viableTargets(b []byte, i, j int) []int {
	var out []int
	for d := 1; d < c.n; d++ {
		t := (j + d) % c.n
		st := c.at(b, i, t)
		if st == proto.Invalid || st == proto.Shared {
			out = append(out, t)
		}
	}
	return out
}

// moveCopy generates the injection successors that move node j's copy of
// item i to each viable target (replacement injections and the
// inject-away step of accesses to local recovery copies).
func (c *checker) moveCopy(s mstate, i, j int, why string) {
	b := []byte(s)
	st := c.at(b, i, j)
	for _, t := range c.viableTargets(b, i, j) {
		nb := c.copyOf(s)
		victim := c.at(nb, i, t)
		c.set(nb, i, t, st)
		c.set(nb, i, j, proto.Invalid)
		edges := []proto.Edge{{From: victim, To: st}, {From: st, To: proto.Invalid}}
		c.step(s, fmt.Sprintf("%s n%d->n%d item%d (%v over %v)", why, j, t, i, st, victim), nb, edges)
	}
}

// read models a read miss by node j (phase 0 only).
func (c *checker) read(s mstate, i, j int) {
	b := []byte(s)
	switch st := c.at(b, i, j); st {
	case proto.InvCK1, proto.InvCK2:
		// Table 1: a read of a local Inv-CK copy first injects it away.
		c.moveCopy(s, i, j, "read-inject")
	case proto.Invalid:
		nb := c.copyOf(s)
		var edges []proto.Edge
		action := fmt.Sprintf("read n%d item%d", j, i)
		for t := 0; t < c.n; t++ {
			if c.at(b, i, t) == proto.Exclusive {
				c.set(nb, i, t, proto.MasterShared)
				edges = append(edges, proto.Edge{From: proto.Exclusive, To: proto.MasterShared})
				break
			}
		}
		c.set(nb, i, j, proto.Shared)
		edges = append(edges, proto.Edge{From: proto.Invalid, To: proto.Shared})
		c.step(s, action, nb, edges)
	case proto.Shared, proto.MasterShared, proto.Exclusive,
		proto.SharedCK1, proto.SharedCK2, proto.PreCommit1, proto.PreCommit2:
		// Readable locally (or unreachable transient): no action.
	}
}

// write models a write by node j (phase 0 only).
func (c *checker) write(s mstate, i, j int) {
	b := []byte(s)
	switch st := c.at(b, i, j); st {
	case proto.InvCK1, proto.InvCK2, proto.SharedCK1, proto.SharedCK2:
		// Table 1: the local recovery copy is injected away first; the
		// write itself re-fires as a follow-up action.
		c.moveCopy(s, i, j, "write-inject")
		return
	case proto.Exclusive:
		return // write hit, no state change
	case proto.Invalid, proto.Shared, proto.MasterShared:
		nb := c.copyOf(s)
		var edges []proto.Edge
		for t := 0; t < c.n; t++ {
			if t == j {
				continue
			}
			switch tst := c.at(b, i, t); tst {
			case proto.Shared, proto.Exclusive, proto.MasterShared:
				c.set(nb, i, t, proto.Invalid)
				edges = append(edges, proto.Edge{From: tst, To: proto.Invalid})
			case proto.SharedCK1:
				c.set(nb, i, t, proto.InvCK1)
				edges = append(edges, proto.Edge{From: proto.SharedCK1, To: proto.InvCK1})
			case proto.SharedCK2:
				c.set(nb, i, t, proto.InvCK2)
				edges = append(edges, proto.Edge{From: proto.SharedCK2, To: proto.InvCK2})
			case proto.Invalid, proto.InvCK1, proto.InvCK2,
				proto.PreCommit1, proto.PreCommit2:
				// Nothing to invalidate (transients unreachable here).
			}
		}
		c.set(nb, i, j, proto.Exclusive)
		edges = append(edges, proto.Edge{From: st, To: proto.Exclusive})
		c.step(s, fmt.Sprintf("write n%d item%d", j, i), nb, edges)
	case proto.PreCommit1, proto.PreCommit2:
		// Unreachable: writes are quiesced during establishment.
	}
}

// evict models a replacement of node j's copy (phase 0 only): Shared
// copies are silently dropped, pinned copies are injected elsewhere.
func (c *checker) evict(s mstate, i, j int) {
	b := []byte(s)
	switch st := c.at(b, i, j); st {
	case proto.Shared:
		nb := c.copyOf(s)
		c.set(nb, i, j, proto.Invalid)
		c.step(s, fmt.Sprintf("evict-drop n%d item%d", j, i), nb,
			[]proto.Edge{{From: proto.Shared, To: proto.Invalid}})
	case proto.Exclusive, proto.MasterShared,
		proto.SharedCK1, proto.SharedCK2, proto.InvCK1, proto.InvCK2:
		c.moveCopy(s, i, j, "evict-inject")
	case proto.Invalid, proto.PreCommit1, proto.PreCommit2:
		// Nothing to evict (transients unreachable in phase 0).
	}
}

// ckptBegin starts an establishment round when there is anything for it
// to do (a modified copy to replicate or a stale Inv-CK pair to discard).
func (c *checker) ckptBegin(s mstate) {
	b := []byte(s)
	work := false
	for i := 0; i < c.k && !work; i++ {
		for j := 0; j < c.n && !work; j++ {
			switch c.at(b, i, j) {
			case proto.Exclusive, proto.MasterShared, proto.InvCK1, proto.InvCK2:
				work = true
			case proto.Invalid, proto.Shared, proto.SharedCK1, proto.SharedCK2,
				proto.PreCommit1, proto.PreCommit2:
			}
		}
	}
	if !work {
		return
	}
	nb := c.copyOf(s)
	nb[0] = phaseCkpt
	c.step(s, "ckpt-begin", nb, nil)
}

// createSteps replicates one modified copy per successor (phase 1): the
// owner becomes PreCommit1 and a PreCommit2 copy is created, either by
// upgrading an existing Shared replica (replication reuse) or by
// injection into a viable slot.
func (c *checker) createSteps(s mstate) {
	b := []byte(s)
	enabled := false
	stuckItem := false
	for i := 0; i < c.k; i++ {
		for j := 0; j < c.n; j++ {
			st := c.at(b, i, j)
			if st != proto.Exclusive && st != proto.MasterShared {
				continue
			}
			any := false
			if st == proto.MasterShared {
				for t := 0; t < c.n; t++ {
					if t != j && c.at(b, i, t) == proto.Shared {
						nb := c.copyOf(s)
						c.set(nb, i, j, proto.PreCommit1)
						c.set(nb, i, t, proto.PreCommit2)
						c.step(s, fmt.Sprintf("create-reuse n%d/n%d item%d", j, t, i), nb,
							[]proto.Edge{{From: proto.MasterShared, To: proto.PreCommit1}, {From: proto.Shared, To: proto.PreCommit2}})
						any = true
					}
				}
			}
			for _, t := range c.viableTargets(b, i, j) {
				nb := c.copyOf(s)
				victim := c.at(nb, i, t)
				c.set(nb, i, j, proto.PreCommit1)
				c.set(nb, i, t, proto.PreCommit2)
				c.step(s, fmt.Sprintf("create-inject n%d->n%d item%d (over %v)", j, t, i, victim), nb,
					[]proto.Edge{{From: st, To: proto.PreCommit1}, {From: victim, To: proto.PreCommit2}})
				any = true
			}
			if any {
				enabled = true
			} else {
				stuckItem = true
			}
		}
	}
	// A modified copy with no Shared replica to reuse and no viable
	// injection slot wedges the establishment: only a failure (abort)
	// can leave this state. The paper's >= 4 nodes requirement exists
	// exactly to make this impossible.
	if stuckItem && !enabled {
		c.stuck++
	}
}

// commit finishes the establishment once every modified copy has been
// replicated: one atomic scan over all nodes (phase 1 -> 0).
func (c *checker) commit(s mstate) {
	b := []byte(s)
	for i := 0; i < c.k; i++ {
		for j := 0; j < c.n; j++ {
			switch c.at(b, i, j) {
			case proto.Exclusive, proto.MasterShared:
				return // create phase still has work
			case proto.Invalid, proto.Shared, proto.SharedCK1, proto.SharedCK2,
				proto.InvCK1, proto.InvCK2, proto.PreCommit1, proto.PreCommit2:
			}
		}
	}
	nb := c.copyOf(s)
	var edges []proto.Edge
	for i := 0; i < c.k; i++ {
		for j := 0; j < c.n; j++ {
			switch c.at(b, i, j) {
			case proto.PreCommit1:
				c.set(nb, i, j, proto.SharedCK1)
				edges = append(edges, proto.Edge{From: proto.PreCommit1, To: proto.SharedCK1})
			case proto.PreCommit2:
				c.set(nb, i, j, proto.SharedCK2)
				edges = append(edges, proto.Edge{From: proto.PreCommit2, To: proto.SharedCK2})
			case proto.InvCK1:
				c.set(nb, i, j, proto.Invalid)
				edges = append(edges, proto.Edge{From: proto.InvCK1, To: proto.Invalid})
			case proto.InvCK2:
				c.set(nb, i, j, proto.Invalid)
				edges = append(edges, proto.Edge{From: proto.InvCK2, To: proto.Invalid})
			case proto.Invalid, proto.Shared, proto.MasterShared, proto.Exclusive,
				proto.SharedCK1, proto.SharedCK2:
			}
		}
	}
	nb[0] = phaseNormal
	c.step(s, "commit", nb, edges)
}

// fail wipes node f (fail-silent, no edges — the machine's AM Clear) and
// runs the atomic recovery: scan + reconfiguration. Injectable between
// any two protocol actions, in either phase — a phase-1 failure is the
// establishment abort, which realises the PreCommit -> Invalid edges.
func (c *checker) fail(s mstate, f int) {
	b := []byte(s)

	// Which items had a committed recovery pair before the failure? The
	// paper's guarantee: those survive any single-node loss.
	committed := make([]bool, c.k)
	for i := 0; i < c.k; i++ {
		committed[i] = c.pairComplete(b, i)
	}

	nb := c.copyOf(s)
	var edges []proto.Edge
	// Fail-silent wipe: no protocol transitions are recorded, exactly
	// like the replayer's handling of KFault.
	for i := 0; i < c.k; i++ {
		c.set(nb, i, f, proto.Invalid)
	}
	// Recovery scan on every surviving node.
	for i := 0; i < c.k; i++ {
		for j := 0; j < c.n; j++ {
			if j == f {
				continue
			}
			switch st := c.at(nb, i, j); st {
			case proto.Shared, proto.Exclusive, proto.MasterShared,
				proto.PreCommit1, proto.PreCommit2:
				c.set(nb, i, j, proto.Invalid)
				edges = append(edges, proto.Edge{From: st, To: proto.Invalid})
			case proto.InvCK1:
				c.set(nb, i, j, proto.SharedCK1)
				edges = append(edges, proto.Edge{From: proto.InvCK1, To: proto.SharedCK1})
			case proto.InvCK2:
				c.set(nb, i, j, proto.SharedCK2)
				edges = append(edges, proto.Edge{From: proto.InvCK2, To: proto.SharedCK2})
			case proto.Invalid, proto.SharedCK1, proto.SharedCK2:
			}
		}
	}
	// Reconfiguration: re-pair every surviving recovery copy whose
	// partner died (promotion first, then a deterministic first-fit
	// injection of the fresh secondary).
	action := fmt.Sprintf("fail n%d", f)
	for i := 0; i < c.k; i++ {
		c1, c2 := -1, -1
		for j := 0; j < c.n; j++ {
			switch c.at(nb, i, j) {
			case proto.SharedCK1:
				c1 = j
			case proto.SharedCK2:
				c2 = j
			case proto.Invalid, proto.Shared, proto.MasterShared, proto.Exclusive,
				proto.InvCK1, proto.InvCK2, proto.PreCommit1, proto.PreCommit2:
			}
		}
		switch {
		case c1 >= 0 && c2 < 0:
			if !c.installFresh(nb, i, c1, &edges) {
				c.step(s, action, nb, edges)
				c.violate(mstate(nb), fmt.Sprintf("reconfiguration found no slot for item %d's fresh secondary", i))
				return
			}
		case c2 >= 0 && c1 < 0:
			c.set(nb, i, c2, proto.SharedCK1)
			edges = append(edges, proto.Edge{From: proto.SharedCK2, To: proto.SharedCK1})
			if !c.installFresh(nb, i, c2, &edges) {
				c.step(s, action, nb, edges)
				c.violate(mstate(nb), fmt.Sprintf("reconfiguration found no slot for item %d's fresh secondary", i))
				return
			}
		}
	}
	nb[0] = phaseNormal
	c.step(s, action, nb, edges)

	// Persistence: every committed pair survived the loss.
	for i := 0; i < c.k; i++ {
		if committed[i] && !c.ckPair(nb, i) {
			c.violate(mstate(nb), fmt.Sprintf("item %d lost its committed recovery pair to a single failure (node %d)", i, f))
		}
	}
}

// installFresh writes a fresh SharedCK2 copy into the first viable slot
// in ring order after the primary holder, recording the install edge.
func (c *checker) installFresh(nb []byte, i, from int, edges *[]proto.Edge) bool {
	for d := 1; d < c.n; d++ {
		t := (from + d) % c.n
		st := c.at(nb, i, t)
		if st == proto.Invalid || st == proto.Shared {
			c.set(nb, i, t, proto.SharedCK2)
			*edges = append(*edges, proto.Edge{From: st, To: proto.SharedCK2})
			return true
		}
	}
	return false
}

// pairComplete reports whether the item holds a complete committed
// recovery pair (Shared-CK copies or their Inv-CK shadows).
func (c *checker) pairComplete(b []byte, i int) bool {
	c1, c2 := false, false
	for j := 0; j < c.n; j++ {
		switch c.at(b, i, j) {
		case proto.SharedCK1, proto.InvCK1:
			c1 = true
		case proto.SharedCK2, proto.InvCK2:
			c2 = true
		case proto.Invalid, proto.Shared, proto.MasterShared, proto.Exclusive,
			proto.PreCommit1, proto.PreCommit2:
		}
	}
	return c1 && c2
}

// ckPair reports a complete restored Shared-CK pair on distinct nodes.
func (c *checker) ckPair(b []byte, i int) bool {
	c1, c2 := -1, -1
	for j := 0; j < c.n; j++ {
		switch c.at(b, i, j) {
		case proto.SharedCK1:
			c1 = j
		case proto.SharedCK2:
			c2 = j
		case proto.Invalid, proto.Shared, proto.MasterShared, proto.Exclusive,
			proto.InvCK1, proto.InvCK2, proto.PreCommit1, proto.PreCommit2:
		}
	}
	return c1 >= 0 && c2 >= 0 && c1 != c2
}

// checkInvariants evaluates the paper's safety invariants on one
// reachable configuration.
func (c *checker) checkInvariants(s mstate) {
	b := []byte(s)
	phase := b[0]
	for i := 0; i < c.k; i++ {
		owners := 0
		counts := make(map[proto.State]int)
		for j := 0; j < c.n; j++ {
			st := c.at(b, i, j)
			counts[st]++
			if st.Owner() {
				owners++
			}
		}
		// Single master: at most one owner-state copy per item.
		if owners > 1 {
			c.violate(s, fmt.Sprintf("item %d has %d owner copies", i, owners))
		}
		// Recovery-copy uniqueness: each kind at most once.
		for _, st := range []proto.State{proto.SharedCK1, proto.SharedCK2,
			proto.InvCK1, proto.InvCK2, proto.PreCommit1, proto.PreCommit2} {
			if counts[st] > 1 {
				c.violate(s, fmt.Sprintf("item %d has %d %v copies", i, counts[st], st))
			}
		}
		// Pair completeness: the 1 and 2 copies of each recovery
		// generation exist together or not at all (the simulator pairs
		// them atomically under the item lock / bus tenure).
		if (counts[proto.SharedCK1]+counts[proto.InvCK1] > 0) !=
			(counts[proto.SharedCK2]+counts[proto.InvCK2] > 0) {
			c.violate(s, fmt.Sprintf("item %d has a half recovery pair", i))
		}
		if (counts[proto.SharedCK1] > 0) != (counts[proto.SharedCK2] > 0) {
			c.violate(s, fmt.Sprintf("item %d mixes Shared-CK and Inv-CK generations", i))
		}
		if (counts[proto.PreCommit1] > 0) != (counts[proto.PreCommit2] > 0) {
			c.violate(s, fmt.Sprintf("item %d has a half pre-commit pair", i))
		}
		// Commit atomicity: transient pre-commit copies exist only
		// while an establishment is in flight.
		if phase == phaseNormal && (counts[proto.PreCommit1] > 0 || counts[proto.PreCommit2] > 0) {
			c.violate(s, fmt.Sprintf("item %d holds pre-commit copies outside an establishment", i))
		}
	}
}
