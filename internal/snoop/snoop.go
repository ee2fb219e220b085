// Package snoop implements the paper's concluding claim that the
// Extended Coherence Protocol "can also be implemented with snooping
// coherence protocols": a single split-transaction bus COMA in the style
// of a one-level DDM, where every attraction memory snoops every bus
// transaction, extended with the same recovery states and the same
// create/commit, rollback and reconfiguration algorithms.
//
// The bus serialises all coherence activity, which makes the protocol
// radically simpler than the mesh machine's (no localisation pointers,
// no transient races) but also caps its bandwidth — running the bus and
// mesh machines side by side shows why the paper prefers non-hierarchical
// COMAs for scalability (see examples/snoopbus).
package snoop

import (
	"fmt"

	"coma/internal/am"
	"coma/internal/config"
	"coma/internal/obs"
	"coma/internal/proto"
	"coma/internal/sim"
	"coma/internal/stats"
	"coma/internal/workload"
)

// Bus timing: an address/snoop phase and a data phase per transaction,
// in cycles. The data phase has the same serialisation cost as one item
// on a mesh link.
const (
	addrPhase = 8
	dataPhase = 34
)

// Config describes one bus-COMA simulation.
type Config struct {
	Arch config.Arch
	// FaultTolerant selects the ECP (recovery states and periodic
	// recovery points); otherwise the standard snooping protocol runs.
	FaultTolerant bool
	App           workload.Spec
	Generators    []workload.Generator
	Seed          uint64
	// CheckpointInterval is the recovery-point period in cycles
	// (FaultTolerant only; 0 disables).
	CheckpointInterval int64
	// Oracle verifies every value delivered to a processor.
	Oracle    bool
	MaxCycles int64

	// Obs, when non-nil, receives state-change and transaction events
	// (the bus machine has no network, so transactions have no hops: a
	// miss is one bus tenure). Never affects timing.
	Obs obs.Observer
}

// Machine is one assembled bus COMA.
type Machine struct {
	cfg  Config
	eng  *sim.Engine
	arch config.Arch
	bus  *sim.Resource
	ams  []*am.AM
	gens []workload.Generator
	c    []*stats.Node

	// Global first-touch registry (anchor frames, as on the mesh).
	anchors map[proto.PageID]bool

	oracle    map[proto.ItemID]uint64
	committed map[proto.ItemID]uint64

	pause     bool
	quiesce   *sim.Barrier
	resume    *sim.Gate
	roundLock *sim.Resource
	idle      []*sim.Process
	running   int
	endTime   int64
	firstErr  error
	ckpt      stats.Checkpointing
	busCycles int64

	// obs and the per-node transaction counters; txnSeq only advances
	// when an observer is attached, so untraced runs are unaffected.
	obs    obs.Observer
	txnSeq []int64
}

// mintTxn allocates the node's next transaction ID (observer attached).
func (m *Machine) mintTxn(n proto.NodeID) proto.TxnID {
	m.txnSeq[n]++
	return proto.MakeTxnID(n, m.txnSeq[n])
}

// New assembles a bus COMA.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Arch.Validate(); err != nil {
		return nil, err
	}
	if !cfg.FaultTolerant && cfg.CheckpointInterval != 0 {
		return nil, fmt.Errorf("snoop: the standard protocol cannot establish recovery points")
	}
	if cfg.FaultTolerant && cfg.CheckpointInterval != 0 && cfg.Arch.Nodes < 4 {
		return nil, fmt.Errorf("snoop: ECP recovery points need at least 4 nodes")
	}
	n := cfg.Arch.Nodes
	if cfg.Generators != nil && len(cfg.Generators) != n {
		return nil, fmt.Errorf("snoop: %d generators for %d nodes", len(cfg.Generators), n)
	}
	if cfg.Generators == nil {
		if err := cfg.App.Validate(); err != nil {
			return nil, err
		}
	}
	m := &Machine{
		cfg:       cfg,
		eng:       sim.New(),
		arch:      cfg.Arch,
		bus:       sim.NewResource("bus", 1),
		ams:       make([]*am.AM, n),
		gens:      make([]workload.Generator, n),
		c:         make([]*stats.Node, n),
		anchors:   make(map[proto.PageID]bool),
		quiesce:   sim.NewBarrier(n + 1),
		resume:    sim.NewGate(),
		roundLock: sim.NewResource("rounds", 1),
		running:   n,
	}
	for i := 0; i < n; i++ {
		m.ams[i] = am.New(cfg.Arch, proto.NodeID(i))
		m.c[i] = &stats.Node{}
		if cfg.Generators != nil {
			m.gens[i] = cfg.Generators[i]
		} else {
			m.gens[i] = cfg.App.NewApp(i, n, cfg.Seed)
		}
	}
	if cfg.Oracle {
		m.oracle = make(map[proto.ItemID]uint64)
		m.committed = make(map[proto.ItemID]uint64)
	}
	if cfg.Obs != nil {
		m.obs = cfg.Obs
		m.txnSeq = make([]int64, n)
		for i := range m.ams {
			nid := proto.NodeID(i)
			m.ams[i].SetStateHook(func(item proto.ItemID, from, to proto.State) {
				cfg.Obs.Emit(obs.Event{Time: m.eng.Now(), Kind: obs.KState,
					Node: nid, Item: item, From: from, To: to})
			})
		}
	}
	for _, g := range m.gens {
		g.Commit()
	}
	return m, nil
}

// Run simulates to completion.
func (m *Machine) Run() (*stats.Run, error) {
	for i := range m.gens {
		n := proto.NodeID(i)
		m.eng.Spawn(fmt.Sprintf("busproc%d", i), func(p *sim.Process) { m.processor(p, n) })
	}
	if m.cfg.FaultTolerant && m.cfg.CheckpointInterval > 0 {
		m.eng.Spawn("bus-coordinator", m.coordinator)
	}
	limit := int64(-1)
	if m.cfg.MaxCycles > 0 {
		limit = m.cfg.MaxCycles
	}
	if _, err := m.eng.RunUntil(limit); err != nil {
		return nil, err
	}
	defer m.eng.Shutdown()
	if m.firstErr != nil {
		return nil, m.firstErr
	}
	if m.running > 0 {
		return nil, fmt.Errorf("snoop: %d processors still running at cycle %d", m.running, m.eng.Now())
	}
	r := &stats.Run{
		Protocol: m.protocolName(),
		App:      m.gens[0].Name(),
		Nodes:    m.arch.Nodes,
		Cycles:   m.endTime,
		ClockHz:  m.arch.ClockHz,
		Ckpt:     m.ckpt,
		PerNode:  make([]stats.Node, len(m.c)),
	}
	for i, c := range m.c {
		r.PerNode[i] = *c
	}
	for _, a := range m.ams {
		r.PagesPeak += a.Stats().PeakFrames
	}
	return r, nil
}

func (m *Machine) protocolName() string {
	if m.cfg.FaultTolerant {
		return "bus-ecp"
	}
	return "bus-standard"
}

// BusUtilisation returns the fraction of simulated time the bus was busy.
func (m *Machine) BusUtilisation() float64 {
	if m.endTime == 0 {
		return 0
	}
	return float64(m.bus.BusyCycles(m.eng)) / float64(m.endTime)
}

func (m *Machine) fail(err error) {
	if m.firstErr == nil {
		m.firstErr = err
		m.eng.Stop()
	}
}

// kickIdle wakes finished processors so they join a quiesce.
func (m *Machine) kickIdle() {
	for _, w := range m.idle {
		m.eng.WakeNow(w)
	}
	m.idle = nil
}

// processor is one node's execution loop: references hit the local AM
// directly (this variant models the AM level, where the protocol lives),
// missing through bus transactions.
func (m *Machine) processor(p *sim.Process, n proto.NodeID) {
	writeSeq := uint64(0)
	for {
		if m.pause {
			m.quiesce.Arrive(p)
			m.resume.Wait(p)
			continue
		}
		r := m.gens[n].Next()
		switch r.Kind {
		case workload.End:
			m.running--
			if m.running == 0 {
				m.endTime = m.eng.Now()
				m.eng.Stop()
			}
			// Stay available for checkpoint and recovery rounds: the
			// AM still holds live state.
			for {
				if m.pause {
					m.quiesce.Arrive(p)
					m.resume.Wait(p)
					continue
				}
				m.idle = append(m.idle, p)
				p.Park()
			}
		case workload.Instr:
			p.Wait(r.N)
		case workload.Barrier:
			// The bus machine has no application barriers beyond the
			// checkpoint quiesce; treat as a pipeline drain.
			p.Wait(m.arch.AMAccess)
		case workload.Read:
			m.c[n].Instructions++
			m.c[n].Reads++
			m.read(p, n, m.arch.ItemOf(r.Addr))
		case workload.Write:
			m.c[n].Instructions++
			m.c[n].Writes++
			writeSeq++
			m.write(p, n, m.arch.ItemOf(r.Addr), uint64(n)<<48|writeSeq)
		}
	}
}
