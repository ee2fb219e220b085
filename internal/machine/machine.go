// Package machine assembles and runs one complete simulated COMA: the
// event engine, the mesh, the attraction memories, the directory, the
// coherence engine (standard or ECP), the recovery coordinator, one node
// per processor, the workload generators, the failure plan, and the value
// oracle that checks end-to-end correctness of every value delivered to a
// processor.
package machine

import (
	"errors"
	"fmt"
	"maps"

	"coma/internal/am"
	"coma/internal/cache"
	"coma/internal/coherence"
	"coma/internal/config"
	"coma/internal/core"
	"coma/internal/directory"
	"coma/internal/fault"
	"coma/internal/mesh"
	"coma/internal/node"
	"coma/internal/obs"
	"coma/internal/proto"
	"coma/internal/sim"
	"coma/internal/stats"
	"coma/internal/workload"
)

// Config describes one simulation run.
type Config struct {
	Arch     config.Arch
	Protocol coherence.Protocol
	Opts     coherence.Options

	// App is the workload specification; one generator per node is
	// derived from it unless Generators overrides them.
	App        workload.Spec
	Generators []workload.Generator

	Seed uint64

	// CheckpointHz is the recovery-point establishment frequency
	// (establishments per second of simulated time); 0 disables
	// periodic establishment. Must be 0 under the standard protocol.
	CheckpointHz float64
	// CheckpointInterval overrides CheckpointHz with an explicit period
	// in cycles when non-zero.
	CheckpointInterval int64

	// Failures is the failure schedule, in any order: the coordinator
	// arms each failure on the timing wheel by its cycle.
	Failures []config.FailureEvent

	// Oracle enables value tracking and verification of every fill.
	Oracle bool
	// Strict makes processors yield on every reference and verifies
	// cache-hit reads too (slow; for tests).
	Strict bool
	// Invariants runs the full recovery-data invariant checker at every
	// commit and rollback (slow; for tests).
	Invariants bool

	// MaxCycles aborts a run that exceeds this simulated time (safety
	// net; 0 selects DefaultMaxCycles, a negative value means no limit).
	MaxCycles int64

	// Obs, when non-nil, receives observability events from every layer
	// (protocol, checkpoint/recovery, faults, mesh occupancy). nil — the
	// default — keeps every emission site to a single branch.
	Obs obs.Observer
}

// obsSampleEvery is the mesh queue-depth sampling period in cycles of
// a run with Obs set.
const obsSampleEvery = 10_000

// Machine is one assembled simulation.
type Machine struct {
	cfg      Config
	eng      *sim.Engine
	net      *mesh.Network
	dir      *directory.Directory
	ams      []*am.AM
	caches   []*cache.Cache
	nodes    []*node.Node
	coh      *coherence.Engine
	co       *core.Coordinator
	counters []*stats.Node

	oracle    map[proto.ItemID]uint64
	committed map[proto.ItemID]uint64
	ended     []bool
	remaining int
	endTime   int64
	firstErr  error

	// obsTicks counts queue-depth ticker dispatches so collect() can
	// report the same Events total whether or not observation is on.
	// The Machine is the ticker's sim.EventSink, so the recurring timer
	// never allocates a closure.
	obsTicks int64
}

// OnEvent implements sim.EventSink: the observability ticker samples mesh
// occupancy and rearms itself.
func (m *Machine) OnEvent(e *sim.Engine, _ int64) {
	m.obsTicks++
	m.cfg.Obs.Emit(obs.Event{Time: e.Now(), Kind: obs.KQueueDepth,
		Node: proto.None, Item: proto.NoItem,
		A: m.net.Inflight(mesh.RequestNet), B: m.net.Inflight(mesh.ReplyNet)})
	e.After(obsSampleEvery, m, 0)
}

// cacheOps adapts the node set to the coherence engine's cache hook.
type cacheOps struct{ m *Machine }

func (c cacheOps) InvalidateItem(n proto.NodeID, item proto.ItemID) {
	c.m.nodes[n].InvalidateItem(item)
}
func (c cacheOps) DowngradeItem(n proto.NodeID, item proto.ItemID) {
	c.m.nodes[n].DowngradeItem(item)
}

// ErrDataLoss is returned when failures destroyed both copies of
// committed recovery data (more simultaneous failures than the two-copy
// scheme tolerates).
var ErrDataLoss = errors.New("machine: committed recovery data lost (multiple overlapping failures)")

// ErrTooFewNodes is returned when permanent failures shrink the machine
// below four live nodes: an item's master plus its Inv-CK recovery pair
// occupy three distinct nodes, so the injection triggered by an access
// to a local recovery copy needs a fourth — below that the ECP cannot
// continue operating (the paper's four irreplaceable pages make the same
// assumption).
var ErrTooFewNodes = errors.New("machine: too few live nodes remain for the ECP")

// DefaultMaxCycles is the cycle cap of a Config whose MaxCycles is 0:
// far past any run the campaigns make, so it only stops a hung one.
const DefaultMaxCycles = 1 << 40

// CheckRecovery is the one statement of what each protocol can do at a
// machine size: New, server.JobSpec.Validate and comafault all apply
// it. Recovery points are asked for by a non-zero interval or a
// positive frequency. The standard protocol establishes none and
// survives no failure. The ECP needs at least four nodes for either:
// the create phase keeps up to four copies of a modified item (old pair
// + new pair), and injections must find a node holding none of them —
// the paper's four irreplaceable pages per page.
func CheckRecovery(p coherence.Protocol, nodes int, interval int64, hz float64, failures bool) error {
	recovery := interval != 0 || hz > 0
	switch {
	case p == coherence.Standard && recovery:
		return errors.New("checkpointing requires the ecp protocol")
	case p == coherence.Standard && failures:
		return errors.New("failure injection requires the ecp protocol")
	case p == coherence.ECP && (recovery || failures) && nodes < 4:
		return fmt.Errorf("ECP recovery points and failures need at least 4 nodes, have %d", nodes)
	}
	return nil
}

// New assembles a machine from the configuration.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Arch.Validate(); err != nil {
		return nil, err
	}
	interval := cfg.CheckpointInterval
	if interval == 0 && cfg.CheckpointHz > 0 {
		interval = cfg.Arch.CheckpointIntervalCycles(cfg.CheckpointHz)
	}
	err := CheckRecovery(cfg.Protocol, cfg.Arch.Nodes, cfg.CheckpointInterval, cfg.CheckpointHz, len(cfg.Failures) > 0)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	n := cfg.Arch.Nodes
	if cfg.Generators != nil && len(cfg.Generators) != n {
		return nil, fmt.Errorf("machine: %d generators for %d nodes", len(cfg.Generators), n)
	}
	if cfg.Generators == nil {
		if err := cfg.App.Validate(); err != nil {
			return nil, err
		}
	}
	if err := fault.Plan(cfg.Failures).Validate(n); err != nil {
		return nil, err
	}

	m := &Machine{
		cfg:       cfg,
		eng:       sim.New(),
		remaining: n,
	}
	m.net = mesh.New(m.eng, cfg.Arch)
	m.dir = directory.New(n)
	m.ams = make([]*am.AM, n)
	m.caches = make([]*cache.Cache, n)
	m.counters = make([]*stats.Node, n)
	m.nodes = make([]*node.Node, n)
	// Only a strict oracle run reads cache-hit values, so only its
	// caches keep value stamps.
	checkHits := cfg.Oracle && cfg.Strict
	for i := 0; i < n; i++ {
		m.ams[i] = am.New(cfg.Arch, proto.NodeID(i))
		m.caches[i] = cache.New(cfg.Arch, checkHits)
		m.counters[i] = &stats.Node{}
	}
	m.coh = coherence.New(m.eng, cfg.Arch, cfg.Protocol, cfg.Opts, m.net, m.dir,
		m.ams, m.counters, cacheOps{m})

	hooks := core.Hooks{OnCommit: m.onCommit, OnRollback: m.onRollback}
	m.co = core.NewCoordinator(m.eng, m.coh, m.net, n, interval, hooks)

	if cfg.Obs != nil {
		m.coh.SetObserver(cfg.Obs)
		m.co.SetObserver(cfg.Obs)
		m.net.SetObserver(cfg.Obs)
		for i := range m.ams {
			nid := proto.NodeID(i)
			m.ams[i].SetStateHook(func(item proto.ItemID, from, to proto.State) {
				cfg.Obs.Emit(obs.Event{Time: m.eng.Now(), Kind: obs.KState,
					Node: nid, Item: item, From: from, To: to})
			})
		}
	}

	if cfg.Oracle {
		m.oracle = make(map[proto.ItemID]uint64)
		m.committed = make(map[proto.ItemID]uint64)
		m.coh.SetReadChecker(m.checkRead)
	}

	m.ended = make([]bool, n)
	nodeHooks := node.Hooks{
		OnWrite:         m.onWrite,
		WorkloadEnded:   m.workloadEnded,
		WorkloadResumed: m.workloadResumed,
	}
	if checkHits {
		nodeHooks.CheckRead = m.checkRead
	}
	for i := 0; i < n; i++ {
		gen := workload.Generator(nil)
		if cfg.Generators != nil {
			gen = cfg.Generators[i]
		} else {
			gen = cfg.App.NewApp(i, n, cfg.Seed)
		}
		m.nodes[i] = node.New(proto.NodeID(i), cfg.Arch, m.caches[i], m.coh, m.co,
			gen, m.counters[i], cfg.Strict, nodeHooks)
		gen.Commit()
	}
	return m, nil
}

// FromIdentity assembles the machine a canonical run identity names.
// It is the one translation from a config.RunIdentity to a Config:
// comad, its cluster workers, comasim and the experiment campaign all
// build through it, so equal identities are equal runs in every binary.
func FromIdentity(id config.RunIdentity, o obs.Observer) (*Machine, error) {
	app, ok := workload.ByName(id.App)
	if !ok {
		return nil, fmt.Errorf("machine: unknown app %q", id.App)
	}
	if id.Instructions > 0 {
		app.Instructions = id.Instructions
	}
	protocol, ok := coherence.ParseProtocol(id.Protocol)
	if !ok {
		return nil, fmt.Errorf("machine: unknown protocol %q", id.Protocol)
	}
	return New(Config{
		Arch:     id.Arch,
		Protocol: protocol,
		Opts: coherence.Options{
			NoReplicationReuse: id.NoReplicationReuse,
			NoSharedCKReads:    id.NoSharedCKReads,
		},
		App:                app,
		Seed:               id.Seed,
		CheckpointHz:       id.CheckpointHz,
		CheckpointInterval: id.CheckpointInterval,
		Failures:           id.Failures,
		Oracle:             id.Oracle,
		Strict:             id.Strict,
		Invariants:         id.Invariants,
		MaxCycles:          id.MaxCycles,
		Obs:                o,
	})
}

// Coordinator exposes the recovery coordinator (tests, examples).
func (m *Machine) Coordinator() *core.Coordinator { return m.co }

// Coherence exposes the protocol engine (tests, examples).
func (m *Machine) Coherence() *coherence.Engine { return m.coh }

// Run executes the simulation to completion and returns the collected
// statistics.
func (m *Machine) Run() (*stats.Run, error) {
	for i := range m.nodes {
		nd := m.nodes[i]
		m.eng.Spawn(fmt.Sprintf("proc%d", i), nd.Run)
	}
	m.co.Start()
	for _, f := range m.cfg.Failures {
		m.co.ScheduleFailure(f.At, core.Failure{Node: proto.NodeID(f.Node), Permanent: f.Permanent})
	}

	if m.cfg.Obs != nil {
		// Sim-time ticker sampling mesh occupancy. It reschedules itself
		// for as long as the engine runs; its dispatches are counted so
		// the reported Events total is unchanged by observation.
		m.eng.After(obsSampleEvery, m, 0)
	}

	limit := int64(-1)
	switch {
	case m.cfg.MaxCycles == 0:
		limit = DefaultMaxCycles
	case m.cfg.MaxCycles > 0:
		limit = m.cfg.MaxCycles
	}
	end, err := m.eng.RunUntil(limit)
	if err != nil {
		return nil, err
	}
	if m.firstErr != nil {
		m.eng.Shutdown()
		return nil, m.firstErr
	}
	if m.remaining > 0 {
		m.eng.Shutdown()
		return nil, fmt.Errorf("machine: %d processors still running at cycle %d (limit hit or deadlock)",
			m.remaining, end)
	}
	m.eng.Shutdown()
	return m.collect(), nil
}

func (m *Machine) collect() *stats.Run {
	r := &stats.Run{
		Protocol: m.cfg.Protocol.String(),
		App:      m.appName(),
		Nodes:    m.cfg.Arch.Nodes,
		Cycles:   m.endTime,
		Events:   m.eng.Events() - m.obsTicks,
		ClockHz:  m.cfg.Arch.ClockHz,
		Ckpt:     m.co.Stats(),
		PerNode:  make([]stats.Node, len(m.counters)),
	}
	for i, c := range m.counters {
		r.PerNode[i] = *c
	}
	for _, a := range m.ams {
		r.PagesPeak += a.Stats().PeakFrames
	}
	ns := m.net.Stats()
	r.NetMessages = ns.Messages[0] + ns.Messages[1]
	r.NetFlits = ns.Flits[0] + ns.Flits[1]
	for _, c := range m.caches {
		cs := c.Stats()
		r.CacheReads += cs.ReadHits + cs.ReadMisses
		r.CacheReadMiss += cs.ReadMisses
		r.CacheWrites += cs.WriteHits + cs.WriteMisses
		r.CacheWriteMis += cs.WriteMisses
	}
	return r
}

func (m *Machine) appName() string {
	if m.cfg.Generators != nil && len(m.cfg.Generators) > 0 {
		return m.cfg.Generators[0].Name()
	}
	return m.cfg.App.Name
}

// fail records the first fatal inconsistency and stops the engine.
func (m *Machine) fail(err error) {
	if m.firstErr == nil {
		m.firstErr = err
		m.eng.Stop()
	}
}

func (m *Machine) onWrite(n proto.NodeID, item proto.ItemID, value uint64) {
	if m.oracle != nil {
		m.oracle[item] = value
	}
}

func (m *Machine) checkRead(n proto.NodeID, item proto.ItemID, value uint64) {
	want := m.oracle[item]
	if value != want {
		m.fail(fmt.Errorf("machine: node %v read %#x from item %d, oracle says %#x",
			n, value, item, want))
	}
}

func (m *Machine) workloadEnded(n proto.NodeID) {
	m.ended[n] = true
	m.remaining--
	if m.remaining == 0 {
		m.endTime = m.eng.Now()
		m.eng.Stop()
	}
}

func (m *Machine) workloadResumed(n proto.NodeID) {
	m.ended[n] = false
	m.remaining++
}

// nodeDied accounts a permanently failed node (its outstanding work will
// never complete).
func (m *Machine) nodeDied(n proto.NodeID) {
	if m.ended[n] {
		return
	}
	m.ended[n] = true
	m.remaining--
	if m.remaining == 0 {
		m.endTime = m.eng.Now()
		m.eng.Stop()
	}
}

// onCommit saves the rollback state at a committed recovery point.
func (m *Machine) onCommit() {
	for _, nd := range m.nodes {
		nd.Generator().Commit()
	}
	if m.oracle != nil {
		clear(m.committed)
		maps.Copy(m.committed, m.oracle)
	}
	if m.cfg.Invariants {
		if err := core.CheckQuiescent(m.coh); err != nil {
			m.fail(fmt.Errorf("machine: invariant violated at commit: %w", err))
		}
	}
}

// onRollback restores the rollback state after a recovery.
func (m *Machine) onRollback(dropped []proto.ItemID, failures []core.Failure) {
	if m.oracle != nil {
		for _, it := range dropped {
			if _, was := m.committed[it]; was {
				m.fail(fmt.Errorf("%w: item %d", ErrDataLoss, it))
				return
			}
		}
		clear(m.oracle)
		maps.Copy(m.oracle, m.committed)
	}
	for i, nd := range m.nodes {
		if !m.co.Alive(proto.NodeID(i)) {
			continue
		}
		nd.Generator().Rollback()
	}
	for _, f := range failures {
		if f.Permanent {
			m.nodeDied(f.Node)
		}
	}
	alive := 0
	for i := range m.nodes {
		if m.co.Alive(proto.NodeID(i)) {
			alive++
		}
	}
	if alive < 4 && m.cfg.Protocol == coherence.ECP {
		m.fail(ErrTooFewNodes)
		return
	}
	if m.cfg.Invariants {
		if err := core.CheckQuiescent(m.coh); err != nil {
			m.fail(fmt.Errorf("machine: invariant violated after rollback: %w", err))
		}
	}
}
