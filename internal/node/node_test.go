package node

import (
	"slices"
	"testing"

	"coma/internal/am"
	"coma/internal/cache"
	"coma/internal/coherence"
	"coma/internal/config"
	"coma/internal/core"
	"coma/internal/directory"
	"coma/internal/mesh"
	"coma/internal/proto"
	"coma/internal/sim"
	"coma/internal/stats"
	"coma/internal/workload"
)

// rig assembles a minimal machine (nodes + coordinator) without the
// machine package, so the node layer can be exercised directly.
type rig struct {
	eng      *sim.Engine
	arch     config.Arch
	coh      *coherence.Engine
	co       *core.Coordinator
	nodes    []*Node
	caches   []*cache.Cache
	counters []*stats.Node
	writes   map[proto.ItemID]uint64
	checked  []checkedRead // strict rigs: every CheckRead call
	ended    int
}

// checkedRead is one cache-hit read passed to the CheckRead hook.
type checkedRead struct {
	node  proto.NodeID
	item  proto.ItemID
	value uint64
}

type rigCacheOps struct{ r *rig }

func (c rigCacheOps) InvalidateItem(n proto.NodeID, item proto.ItemID) {
	c.r.nodes[n].InvalidateItem(item)
}
func (c rigCacheOps) DowngradeItem(n proto.NodeID, item proto.ItemID) {
	c.r.nodes[n].DowngradeItem(item)
}

func newRig(t *testing.T, gens []workload.Generator, interval int64, strict bool) *rig {
	t.Helper()
	n := len(gens)
	r := &rig{
		eng:    sim.New(),
		arch:   config.KSR1(n),
		writes: make(map[proto.ItemID]uint64),
	}
	net := mesh.New(r.eng, r.arch)
	dir := directory.New(n)
	ams := make([]*am.AM, n)
	r.counters = make([]*stats.Node, n)
	r.caches = make([]*cache.Cache, n)
	r.nodes = make([]*Node, n)
	for i := 0; i < n; i++ {
		ams[i] = am.New(r.arch, proto.NodeID(i))
		r.counters[i] = &stats.Node{}
		r.caches[i] = cache.New(r.arch, strict)
	}
	r.coh = coherence.New(r.eng, r.arch, coherence.ECP, coherence.Options{},
		net, dir, ams, r.counters, rigCacheOps{r})
	r.co = core.NewCoordinator(r.eng, r.coh, net, n, interval, core.Hooks{})
	hooks := Hooks{
		OnWrite:       func(_ proto.NodeID, item proto.ItemID, v uint64) { r.writes[item] = v },
		WorkloadEnded: func(proto.NodeID) { r.ended++ },
	}
	if strict {
		hooks.CheckRead = func(n proto.NodeID, item proto.ItemID, v uint64) {
			r.checked = append(r.checked, checkedRead{n, item, v})
		}
	}
	for i := 0; i < n; i++ {
		r.nodes[i] = New(proto.NodeID(i), r.arch, r.caches[i], r.coh, r.co,
			gens[i], r.counters[i], strict, hooks)
	}
	t.Cleanup(func() { r.eng.Shutdown() })
	return r
}

func (r *rig) runAll(t *testing.T) {
	t.Helper()
	for i := range r.nodes {
		nd := r.nodes[i]
		r.eng.Spawn("proc", nd.Run)
	}
	r.co.Start()
	// Stop once all workloads ended (the coordinator keeps a wake event
	// scheduled forever otherwise).
	limit := int64(1)
	for r.ended < len(r.nodes) && limit < 1<<34 {
		limit <<= 1
		if _, err := r.eng.RunUntil(limit); err != nil {
			t.Fatal(err)
		}
	}
	if r.ended != len(r.nodes) {
		t.Fatalf("only %d/%d workloads ended", r.ended, len(r.nodes))
	}
}

func scriptGens(n int, refs ...workload.Ref) []workload.Generator {
	gens := make([]workload.Generator, n)
	for i := range gens {
		gens[i] = workload.NewScript("s", refs)
	}
	return gens
}

func TestProcessorExecutesScript(t *testing.T) {
	gens := scriptGens(4,
		workload.I(10), workload.R(0), workload.W(0), workload.I(5), workload.R(128))
	r := newRig(t, gens, 0, true)
	r.runAll(t)
	total := &stats.Node{}
	for _, c := range r.counters {
		total.Add(c)
	}
	if total.Reads != 8 || total.Writes != 4 {
		t.Fatalf("reads=%d writes=%d", total.Reads, total.Writes)
	}
	if total.Instructions != 4*(10+5+3) {
		t.Fatalf("instructions = %d", total.Instructions)
	}
}

func TestWriteValuesAreUniquePerNode(t *testing.T) {
	gens := scriptGens(2, workload.W(0), workload.W(128), workload.W(256))
	r := newRig(t, gens, 0, true)
	r.runAll(t)
	seen := map[uint64]bool{}
	for _, v := range r.writes {
		if seen[v] {
			t.Fatalf("duplicate write value %#x", v)
		}
		seen[v] = true
	}
	if len(r.writes) != 3 {
		t.Fatalf("items written = %d", len(r.writes))
	}
}

func TestCacheAbsorbsRepeatedAccesses(t *testing.T) {
	var refs []workload.Ref
	refs = append(refs, workload.R(0))
	for i := 0; i < 50; i++ {
		refs = append(refs, workload.R(0))
	}
	r := newRig(t, scriptGens(1, refs...), 0, false)
	r.runAll(t)
	cs := r.caches[0].Stats()
	if cs.ReadMisses != 1 {
		t.Fatalf("cache read misses = %d, want 1 (rest absorbed)", cs.ReadMisses)
	}
	if r.counters[0].AMReads != 1 {
		t.Fatalf("AM reads = %d, want 1", r.counters[0].AMReads)
	}
}

// TestStrictCheckSeesPlantedStamp: a strict node's cache keeps value
// stamps, and a read hit hands the line's stamp to CheckRead, so a
// wrong value in the cache reaches the oracle's check.
func TestStrictCheckSeesPlantedStamp(t *testing.T) {
	const bad = 0xbad
	r := newRig(t, scriptGens(1, workload.W(128), workload.R(0), workload.I(10),
		workload.R(0), workload.R(128)), 0, true)
	r.caches[0].Fill(0, false, bad, 0) // item 0's first line, never fetched
	r.runAll(t)
	want := []checkedRead{{0, 0, bad}, {0, 0, bad}, {0, 1, r.writes[1]}}
	if !slices.Equal(r.checked, want) {
		t.Fatalf("checked reads = %+v, want %+v", r.checked, want)
	}
}

func TestFlushCacheChargesAndDowngrades(t *testing.T) {
	r := newRig(t, scriptGens(1, workload.W(0), workload.W(128)), 0, true)
	nd := r.nodes[0]
	done := false
	r.eng.Spawn("t", func(p *sim.Process) {
		r.coh.WriteItem(p, 0, 0, 1)
		r.caches[0].FillDirty(0, 1, p.Now())
		start := p.Now()
		nd.FlushCache(p)
		if p.Now() == start {
			t.Error("flush charged no cycles with dirty lines")
		}
		if r.caches[0].DirtyLines() != 0 {
			t.Error("dirty lines survived flush")
		}
		if r.caches[0].Writable(0) {
			t.Error("write permission survived flush")
		}
		done = true
	})
	if _, err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("test process stuck")
	}
}

func TestBarriersSynchronise(t *testing.T) {
	// Node 0 computes a long stretch before the barrier, node 1 a short
	// one; after the barrier both write. The write order must place both
	// writes after the slowest arrival.
	gens := []workload.Generator{
		workload.NewScript("slow", []workload.Ref{workload.I(10_000), workload.B(), workload.W(0)}),
		workload.NewScript("fast", []workload.Ref{workload.I(10), workload.B(), workload.W(128)}),
	}
	r := newRig(t, gens, 0, true)
	r.runAll(t)
	if len(r.writes) != 2 {
		t.Fatalf("writes = %d", len(r.writes))
	}
	if r.eng.Now() < 10_000 {
		t.Fatalf("run ended at %d, before the slow node's stretch", r.eng.Now())
	}
}

func TestCheckpointRoundsRunThroughNodeLoop(t *testing.T) {
	var refs []workload.Ref
	for i := 0; i < 400; i++ {
		refs = append(refs, workload.I(100), workload.W(uint64(i%32)*128))
	}
	r := newRig(t, scriptGens(4, refs...), 8_000, false)
	r.runAll(t)
	if r.co.Stats().Established < 2 {
		t.Fatalf("established = %d", r.co.Stats().Established)
	}
	if err := core.CheckQuiescent(r.coh); err != nil {
		t.Fatal(err)
	}
}
