// Package edges stages deterministic micro-runs that together drive
// the mesh simulator through every (From, To) edge of the ECP
// specification table — the runtime leg of the comamodel conformance
// gate. It lives in its own package (not internal/fault proper) so the
// machine layer's tests can import fault without a cycle.
package edges

import (
	"fmt"
	"io"
	"maps"
	"slices"

	"coma/internal/coherence"
	"coma/internal/config"
	"coma/internal/machine"
	"coma/internal/obs"
	"coma/internal/obs/txnview"
	"coma/internal/proto"
	"coma/internal/stats"
	"coma/internal/workload"
)

// This file stages deterministic micro-runs that drive the simulator
// through every (From, To) edge of the ECP specification table
// (proto.ECPEdges). Broad workloads exercise most edges by
// accident; the rest need precise choreography — a failure landing
// inside a create window, recovery copies moved onto Shared victims, a
// master evicted onto a node that already holds the item — and those
// are exactly the transitions a conformance argument most wants to see
// executed. comafault -edges runs the suite and cmd/comamodel diffs the
// union against the spec, the static extraction and the model checker.

// Scenario is one deterministic run staged to exercise specific
// protocol edges.
type Scenario struct {
	Name string
	// Doc explains the choreography in one or two sentences.
	Doc string
	// Targets are the spec edges this scenario exists to reach; the
	// suite fails if a scenario misses one of its own targets, so a
	// timing change that silently un-stages a scenario is caught even
	// when another scenario still covers the edge.
	Targets []proto.Edge
	// WantAborted requires at least one establishment abort (the
	// create-window failure scenario).
	WantAborted bool
	// Config builds a fresh machine configuration. Generators are
	// stateful, so every call must return new ones.
	Config func() machine.Config
}

// ScenarioResult is the outcome of one scenario run.
type ScenarioResult struct {
	Scenario Scenario
	Run      *stats.Run
	Events   []obs.Event
	// Exercised is the set of protocol edges the run's trace replays.
	Exercised map[proto.Edge]int
	// MissedTargets are the scenario's own targets it failed to reach.
	MissedTargets []proto.Edge
	// Unexpected are replayed edges outside the specification table.
	Unexpected []proto.Edge
}

// RunScenario executes one scenario with a full-mask recorder
// attached and replays its trace into per-edge coverage.
func RunScenario(sc Scenario) (*ScenarioResult, error) {
	cfg := sc.Config()
	rec := obs.NewRecorder(obs.MaskAll)
	cfg.Obs = rec
	m, err := machine.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sc.Name, err)
	}
	run, err := m.Run()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sc.Name, err)
	}
	res := &ScenarioResult{
		Scenario:  sc,
		Run:       run,
		Events:    rec.Events(),
		Exercised: make(map[proto.Edge]int),
	}
	rep := txnview.Coverage(res.Events)
	for _, e := range rep.Exercised {
		res.Exercised[e.Edge] += int(e.Count)
	}
	for _, e := range rep.Unexpected {
		res.Unexpected = append(res.Unexpected, e.Edge)
	}
	for _, t := range sc.Targets {
		if res.Exercised[t] == 0 {
			res.MissedTargets = append(res.MissedTargets, t)
		}
	}
	if sc.WantAborted && run.Ckpt.Aborted == 0 {
		return nil, fmt.Errorf("%s: no establishment aborted (failure missed the create window; retune the failure time)", sc.Name)
	}
	return res, nil
}

// SuiteReport is the union coverage of a full suite run.
type SuiteReport struct {
	Results   []*ScenarioResult
	Exercised map[proto.Edge]int
	// Missing are spec edges no scenario exercised.
	Missing []proto.Edge
	// Unexpected are replayed edges outside the spec, with the scenario
	// that produced them.
	Unexpected map[proto.Edge][]string
}

// RunSuite executes every scenario and unions the coverage.
func RunSuite() (*SuiteReport, error) {
	rep := &SuiteReport{
		Exercised:  make(map[proto.Edge]int),
		Unexpected: make(map[proto.Edge][]string),
	}
	for _, sc := range Scenarios() {
		res, err := RunScenario(sc)
		if err != nil {
			return nil, err
		}
		rep.Results = append(rep.Results, res)
		for t, n := range res.Exercised {
			rep.Exercised[t] += n
		}
		for _, t := range res.Unexpected {
			rep.Unexpected[t] = append(rep.Unexpected[t], sc.Name)
		}
	}
	for _, t := range proto.ECPEdges() {
		if rep.Exercised[t] == 0 {
			rep.Missing = append(rep.Missing, t)
		}
	}
	return rep, nil
}

// Full reports whether the suite covered the entire specification table
// with no misses, no unexpected edges, and every scenario reaching its
// own targets.
func (r *SuiteReport) Full() bool {
	if len(r.Missing) > 0 || len(r.Unexpected) > 0 {
		return false
	}
	for _, res := range r.Results {
		if len(res.MissedTargets) > 0 {
			return false
		}
	}
	return true
}

// Write renders the per-scenario and union coverage.
func (r *SuiteReport) Write(w io.Writer) {
	spec := proto.ECPEdges()
	for _, res := range r.Results {
		fmt.Fprintf(w, "%-22s %3d/%d edges", res.Scenario.Name, len(res.Exercised), len(spec))
		if res.Run.Ckpt.Aborted > 0 {
			fmt.Fprintf(w, ", %d aborted establishment(s)", res.Run.Ckpt.Aborted)
		}
		fmt.Fprintln(w)
		for _, t := range res.MissedTargets {
			fmt.Fprintf(w, "  MISSED TARGET: %s\n", t)
		}
	}
	fmt.Fprintf(w, "union: %d/%d spec edges exercised\n", len(spec)-len(r.Missing), len(spec))
	for _, t := range r.Missing {
		fmt.Fprintf(w, "  unexercised: %s\n", t)
	}
	for _, t := range slices.SortedFunc(maps.Keys(r.Unexpected), proto.Edge.Compare) {
		fmt.Fprintf(w, "  UNEXPECTED: %s (%v)\n", t, r.Unexpected[t])
	}
}

// ckptInterval is the establishment period the checkpointed scenarios
// use; settle() is sized so at least two full rounds fit inside it.
const ckptInterval = 25_000

// rep appends n copies of the given refs.
func rep(n int, refs ...workload.Ref) []workload.Ref {
	out := make([]workload.Ref, 0, n*len(refs))
	for i := 0; i < n; i++ {
		out = append(out, refs...)
	}
	return out
}

// settle is an interruptible burst long enough for two checkpoint
// rounds: many short instruction bursts, so the coordinator's pause
// request is honoured between them.
func settle() []workload.Ref { return rep(30, workload.I(ckptInterval/10)) }

// phased assembles one Script generator per node from a phase table:
// phases[p][n] is node n's reference stream for phase p, and a global
// barrier separates consecutive phases so the cross-node ordering is
// exact. A nil cell idles through the phase.
func phased(name string, nodes int, phases [][][]workload.Ref) []workload.Generator {
	gens := make([]workload.Generator, nodes)
	for n := 0; n < nodes; n++ {
		var refs []workload.Ref
		for _, ph := range phases {
			cell := []workload.Ref{workload.I(100)}
			if n < len(ph) && ph[n] != nil {
				cell = ph[n]
			}
			refs = append(refs, cell...)
			refs = append(refs, workload.B())
		}
		gens[n] = workload.NewScript(fmt.Sprintf("%s-n%d", name, n), refs)
	}
	return gens
}

// addrOf returns the byte address of item idx on the given page.
func addrOf(a config.Arch, page, idx int) uint64 {
	return uint64(page)*uint64(a.PageSize) + uint64(idx)*uint64(a.ItemSize)
}

// refs is a tiny readability alias for one phase cell.
func refs(rs ...workload.Ref) []workload.Ref { return rs }

// Scenarios returns the full suite. Every scenario is deterministic:
// fixed scripts, fixed failure times, same seed behaviour on every run.
func Scenarios() []Scenario {
	return []Scenario{
		upgradePaths(),
		recoveryPairWrite(),
		invCKMoves(),
		masterEviction(),
		createWindowAbort(),
		reconfigurePromote(),
	}
}

// upgradePaths walks the plain-ECP ownership lattice on one item:
// cold-write, read-downgrade, sharer upgrade, master re-upgrade, and
// remote-write ownership transfer.
func upgradePaths() Scenario {
	arch := config.KSR1(4)
	A := addrOf(arch, 0, 0)
	return Scenario{
		Name: "upgrade-paths",
		Doc: "one item bounced between four nodes: cold write, read " +
			"downgrades, sharer and master upgrades, ownership transfer",
		Targets: []proto.Edge{
			{From: proto.Invalid, To: proto.Exclusive},
			{From: proto.Invalid, To: proto.Shared},
			{From: proto.Exclusive, To: proto.MasterShared},
			{From: proto.Exclusive, To: proto.Invalid},
			{From: proto.MasterShared, To: proto.Exclusive},
			{From: proto.MasterShared, To: proto.Invalid},
			{From: proto.Shared, To: proto.Exclusive},
			{From: proto.Shared, To: proto.Invalid},
		},
		Config: func() machine.Config {
			gens := phased("upgrade-paths", 4, [][][]workload.Ref{
				{refs(workload.W(A))},                // I->E at n0
				{nil, refs(workload.R(A))},           // E->MS at n0, I->S at n1
				{nil, refs(workload.W(A))},           // S->E at n1, MS->I at n0
				{refs(workload.R(A))},                // E->MS at n1, I->S at n0
				{nil, refs(workload.W(A))},           // MS->E at n1, S->I at n0
				{nil, nil, refs(workload.R(A))},      // E->MS at n1, I->S at n2
				{nil, nil, nil, refs(workload.W(A))}, // MS->I at n1, I->E at n3
				{refs(workload.W(A))},                // E->I at n3, I->E at n0
			})
			return machine.Config{
				Arch:       arch,
				Protocol:   coherence.ECP,
				Generators: gens,
				Oracle:     true,
				MaxCycles:  2_000_000,
			}
		},
	}
}

// recoveryPairWrite establishes Shared-CK pairs and then has pair
// members write the item, so the write-triggered injection moves the
// recovery copy onto nodes staged to hold Shared (or Invalid) victims.
func recoveryPairWrite() Scenario {
	arch := config.KSR1(4)
	X := addrOf(arch, 0, 0)
	return Scenario{
		Name: "recovery-pair-write",
		Doc: "Shared-CK holders write the protected item while ring " +
			"successors hold Shared or Invalid slots, so the recovery copy " +
			"is injected over every victim kind",
		Targets: []proto.Edge{
			{From: proto.Exclusive, To: proto.PreCommit1},
			{From: proto.Invalid, To: proto.PreCommit2},
			{From: proto.PreCommit1, To: proto.SharedCK1},
			{From: proto.PreCommit2, To: proto.SharedCK2},
			{From: proto.Shared, To: proto.SharedCK1},
			{From: proto.Shared, To: proto.SharedCK2},
			{From: proto.Invalid, To: proto.SharedCK1},
			{From: proto.SharedCK1, To: proto.InvCK1},
			{From: proto.SharedCK2, To: proto.InvCK2},
			{From: proto.SharedCK1, To: proto.Invalid},
			{From: proto.SharedCK2, To: proto.Invalid},
			{From: proto.InvCK1, To: proto.Invalid},
			{From: proto.InvCK2, To: proto.Invalid},
		},
		Config: func() machine.Config {
			gens := phased("recovery-pair-write", 4, [][][]workload.Ref{
				{refs(workload.W(X))}, // I->E at n0
				// Establishment: E->PC1 at n0, PC2 injected to n1
				// (I->PC2), commit -> SCK1@0, SCK2@1.
				{settle(), settle(), settle(), settle()},
				{nil, nil, refs(workload.R(X)), refs(workload.R(X))}, // S@2, S@3
				// n0 writes its own SCK1: the injection walks the ring
				// past SCK2@1 onto S@2 (Shared -> SharedCK1); the write
				// then demotes the pair and invalidates S@3.
				{refs(workload.W(X))},
				// New pair: PC2 lands on n3 (only Invalid slot left);
				// commit clears the Inv-CKs.
				{settle(), settle(), settle(), settle()},
				{nil, refs(workload.R(X)), refs(workload.R(X))}, // S@1, S@2
				// n3 writes its own SCK2: past SCK1@0 onto S@1
				// (Shared -> SharedCK2).
				{nil, nil, nil, refs(workload.W(X))},
				{settle(), settle(), settle(), settle()},
				// n3 writes its own SCK1: the first ring stop n0 holds an
				// Invalid slot (Invalid -> SharedCK1).
				{nil, nil, nil, refs(workload.W(X))},
				{settle(), settle(), settle(), settle()},
			})
			return machine.Config{
				Arch:               arch,
				Protocol:           coherence.ECP,
				Generators:         gens,
				Oracle:             true,
				CheckpointInterval: ckptInterval,
				MaxCycles:          5_000_000,
			}
		},
	}
}

// invCKMoves stages reads and writes on nodes holding Inv-CK copies, so
// the displacement injections land on Shared and Invalid victims, and
// ends with a MasterShared owner whose establishment reuses a Shared
// copy for the secondary.
func invCKMoves() Scenario {
	arch := config.KSR1(4)
	X := addrOf(arch, 0, 0)
	return Scenario{
		Name: "inv-ck-moves",
		Doc: "accesses to local Inv-CK copies inject them over Shared and " +
			"Invalid victims; a MasterShared owner then establishes via " +
			"replication reuse of a Shared copy",
		Targets: []proto.Edge{
			{From: proto.Shared, To: proto.InvCK1},
			{From: proto.Shared, To: proto.InvCK2},
			{From: proto.Invalid, To: proto.InvCK1},
			{From: proto.Invalid, To: proto.InvCK2},
			{From: proto.MasterShared, To: proto.PreCommit1},
			{From: proto.Shared, To: proto.PreCommit2},
		},
		Config: func() machine.Config {
			gens := phased("inv-ck-moves", 4, [][][]workload.Ref{
				{refs(workload.W(X))},                    // E@0
				{settle(), settle(), settle(), settle()}, // SCK1@0, SCK2@1
				{nil, nil, refs(workload.W(X))},          // pair -> ICK1@0, ICK2@1; E@2
				{nil, nil, nil, refs(workload.R(X))},     // E->MS@2, S@3
				{refs(workload.R(X))},                    // ICK1@0 over S@3 (S->ICK1); S@0
				{nil, refs(workload.R(X))},               // ICK2@1 over S@0 (S->ICK2); S@1
				{nil, nil, refs(workload.W(X))},          // MS->E@2; S@1->I
				{nil, nil, nil, refs(workload.R(X))},     // ICK1@3 over I@1 (I->ICK1); MS@2, S@3
				{nil, refs(workload.W(X))},               // ICK1@1 over S@3; MS@2->I; E@1
				{refs(workload.R(X))},                    // ICK2@0 over I@2 (I->ICK2); E@1->MS, S@0
				{settle(), settle(), settle(), settle()}, // MS->PC1@1, reuse S@0 -> PC2
				{nil, nil, nil, refs(workload.R(X))},     // settle read
				{settle(), settle(), settle(), settle()},
			})
			return machine.Config{
				Arch:               arch,
				Protocol:           coherence.ECP,
				Generators:         gens,
				Oracle:             true,
				CheckpointInterval: ckptInterval,
				MaxCycles:          5_000_000,
			}
		},
	}
}

// masterEviction shrinks the attraction memories to four frames with a
// single anchor, fills a node's set with irreplaceable pages and forces
// the replacement of a MasterShared frame, so the master is injected
// over a Shared victim and — for a second item — over an Invalid slot.
func masterEviction() Scenario {
	arch := config.KSR1(4)
	arch.AMSize = 4 * arch.PageSize // four frames per node
	arch.AMWays = 4                 // one fully associative set
	arch.AnchorFrames = 1           // only the first toucher is irreplaceable
	X := addrOf(arch, 0, 0)
	Y := addrOf(arch, 1, 0)
	return Scenario{
		Name: "master-eviction",
		Doc: "a four-frame AM with a single anchor: filling the set with " +
			"irreplaceable pages evicts the MasterShared frame, injecting " +
			"the master over a Shared victim and an Invalid anchor slot",
		Targets: []proto.Edge{
			{From: proto.Shared, To: proto.MasterShared},
			{From: proto.Invalid, To: proto.MasterShared},
			{From: proto.MasterShared, To: proto.Invalid},
		},
		Config: func() machine.Config {
			gens := phased("master-eviction", 4, [][][]workload.Ref{
				{refs(workload.R(X))},           // anchor page0 at n0; cold S@0
				{nil, refs(workload.W(X))},      // E@1 (replaceable frame), S@0->I
				{nil, nil, refs(workload.R(X))}, // E->MS@1, S@2
				{nil, refs( // three fresh pages anchor at n1; set now full
					workload.R(addrOf(arch, 2, 0)),
					workload.R(addrOf(arch, 3, 0)),
					workload.R(addrOf(arch, 4, 0)),
				)},
				// Page 5 evicts page 0 at n1: the master walks the ring to
				// n2's Shared slot (Shared -> MasterShared).
				{nil, refs(workload.R(addrOf(arch, 5, 0)))},
				{refs(workload.R(Y))},                // anchor page1 at n0; cold S@0
				{nil, nil, nil, refs(workload.W(Y))}, // E@3, S@0->I
				{nil, nil, refs(workload.R(Y))},      // E->MS@3, S@2
				{nil, nil, nil, refs(
					workload.R(addrOf(arch, 6, 0)),
					workload.R(addrOf(arch, 7, 0)),
					workload.R(addrOf(arch, 8, 0)),
				)},
				// Page 9 evicts page 1 at n3: the first ring stop n0 holds
				// the anchored frame with Y Invalid (Invalid -> MasterShared).
				{nil, nil, nil, refs(workload.R(addrOf(arch, 9, 0)))},
			})
			return machine.Config{
				Arch:       arch,
				Protocol:   coherence.ECP,
				Generators: gens,
				Oracle:     true,
				MaxCycles:  2_000_000,
			}
		},
	}
}

// createWindowAbort writes enough distinct items that the create phase
// of the first establishment is long, and schedules a transient failure
// inside it: the abort's recovery scan discards the pre-commit pairs
// (PreCommit -> Invalid). A second failure lands between later commits,
// while demoted Inv-CK copies exist, so the rollback restores them
// (InvCK -> SharedCK).
func createWindowAbort() Scenario {
	arch := config.KSR1(4)
	const interval = 30_000
	return Scenario{
		Name: "create-window-abort",
		Doc: "a transient failure inside the first create window aborts " +
			"the establishment at the commit boundary; a later failure " +
			"between commits rolls demoted Inv-CK copies back to Shared-CK",
		Targets: []proto.Edge{
			{From: proto.PreCommit1, To: proto.Invalid},
			{From: proto.PreCommit2, To: proto.Invalid},
			{From: proto.InvCK1, To: proto.SharedCK1},
			{From: proto.InvCK2, To: proto.SharedCK2},
		},
		WantAborted: true,
		Config: func() machine.Config {
			gens := make([]workload.Generator, 4)
			for n := 0; n < 4; n++ {
				var rs []workload.Ref
				for k := 0; k < 120; k++ {
					rs = append(rs, workload.W(addrOf(arch, n, k%24)), workload.I(300))
				}
				gens[n] = workload.NewScript(fmt.Sprintf("create-window-abort-n%d", n), rs)
			}
			return machine.Config{
				Arch:               arch,
				Protocol:           coherence.ECP,
				Generators:         gens,
				Oracle:             true,
				CheckpointInterval: interval,
				Failures: []config.FailureEvent{
					{At: 31_500, Node: 2},
					{At: 75_000, Node: 1},
				},
				MaxCycles: 10_000_000,
			}
		},
	}
}

// reconfigurePromote kills the SharedCK1 holder permanently: the
// surviving secondary promotes itself (SharedCK2 -> SharedCK1) and
// injects a fresh secondary into an Invalid slot (Invalid -> SharedCK2).
func reconfigurePromote() Scenario {
	arch := config.KSR1(5)
	X := addrOf(arch, 0, 0)
	return Scenario{
		Name: "reconfigure-promote",
		Doc: "a permanent failure of the SharedCK1 holder: reconfiguration " +
			"promotes the surviving secondary and re-replicates it",
		Targets: []proto.Edge{
			{From: proto.SharedCK2, To: proto.SharedCK1},
			{From: proto.Invalid, To: proto.SharedCK2},
		},
		Config: func() machine.Config {
			gens := make([]workload.Generator, 5)
			for n := 0; n < 5; n++ {
				var rs []workload.Ref
				if n == 0 {
					rs = append(rs, workload.W(X))
				}
				// No barriers: node 0 dies mid-run and must not strand the
				// others at a rendezvous.
				rs = append(rs, rep(60, workload.I(2_000))...)
				gens[n] = workload.NewScript(fmt.Sprintf("reconfigure-promote-n%d", n), rs)
			}
			return machine.Config{
				Arch:               arch,
				Protocol:           coherence.ECP,
				Generators:         gens,
				Oracle:             true,
				CheckpointInterval: ckptInterval,
				Failures: []config.FailureEvent{
					{At: 70_000, Node: 0, Permanent: true},
				},
				MaxCycles: 5_000_000,
			}
		},
	}
}
