// Package node assembles one processing node of the simulated machine: a
// blocking in-order processor driven by a workload generator, its sectored
// data cache, and the glue to the coherence engine (the attraction memory
// and its controllers live in the coherence layer) and to the recovery
// coordinator.
package node

import (
	"coma/internal/cache"
	"coma/internal/coherence"
	"coma/internal/config"
	"coma/internal/core"
	"coma/internal/proto"
	"coma/internal/sim"
	"coma/internal/stats"
	"coma/internal/workload"
)

// maxBatch bounds how many cycles of cache-hit work a processor
// accumulates before yielding to the engine, so quiesce requests are
// honoured promptly and timing error stays far below a checkpoint
// interval.
const maxBatch = 200

// Hooks are the machine-level callbacks a node reports through.
type Hooks struct {
	// OnWrite records a completed store (the value oracle).
	OnWrite func(n proto.NodeID, item proto.ItemID, value uint64)
	// CheckRead validates a load that hit in the cache (strict mode).
	CheckRead func(n proto.NodeID, item proto.ItemID, value uint64)
	// WorkloadEnded reports that the node's reference stream finished.
	WorkloadEnded func(n proto.NodeID)
	// WorkloadResumed reports that a rollback rewound a finished stream
	// and the node is computing again.
	WorkloadResumed func(n proto.NodeID)
}

// Node is one processing node.
type Node struct {
	id    proto.NodeID
	arch  config.Arch
	cache *cache.Cache
	coh   *coherence.Engine
	co    *core.Coordinator
	gen   workload.Generator
	c     *stats.Node
	hooks Hooks

	// strict makes the processor yield (and oracle-check) on every
	// memory reference instead of batching cache hits; slower, used by
	// correctness tests.
	strict bool

	writeSeq uint64
}

// New builds a node. The coordinator may not be nil: it also implements
// application barriers.
func New(id proto.NodeID, arch config.Arch, ch *cache.Cache, coh *coherence.Engine,
	co *core.Coordinator, gen workload.Generator, c *stats.Node, strict bool, hooks Hooks) *Node {
	return &Node{
		id:     id,
		arch:   arch,
		cache:  ch,
		coh:    coh,
		co:     co,
		gen:    gen,
		c:      c,
		strict: strict,
		hooks:  hooks,
	}
}

// ID implements core.NodeOps.
func (n *Node) ID() proto.NodeID { return n.id }

// Cache returns the node's processor cache.
func (n *Node) Cache() *cache.Cache { return n.cache }

// Generator returns the node's workload generator.
func (n *Node) Generator() workload.Generator { return n.gen }

// FlushCache implements core.NodeOps: write dirty lines back to the local
// AM (values are already coherent in the simulator's write-through value
// model; the cycles model the physical write-back) and drop write
// permission everywhere.
func (n *Node) FlushCache(p *sim.Process) {
	dirty := int64(n.cache.DirtyLines())
	if dirty > 0 {
		p.Wait(dirty * n.arch.CacheFlushPerLine)
	}
	n.cache.FlushDirty()
	n.cache.DowngradeAll()
	n.c.FlushedLines += dirty
}

// ClearCache implements core.NodeOps.
func (n *Node) ClearCache() { n.cache.InvalidateAll() }

// InvalidateItem implements the coherence engine's cache hook for this
// node.
func (n *Node) InvalidateItem(item proto.ItemID) {
	n.cache.InvalidateItem(n.itemAddr(item))
}

// DowngradeItem implements the coherence engine's cache hook.
func (n *Node) DowngradeItem(item proto.ItemID) {
	n.cache.DowngradeItem(n.itemAddr(item))
}

func (n *Node) itemAddr(item proto.ItemID) uint64 {
	return uint64(item) * uint64(n.arch.ItemSize)
}

// nextValue produces a globally unique store value: high bits identify
// the node, low bits count its stores.
func (n *Node) nextValue() uint64 {
	n.writeSeq++
	return uint64(n.id)<<48 | n.writeSeq
}

// Run is the processor process body: it executes the reference stream,
// charging one cycle per instruction and per cache hit, running the
// below/above protocol on misses, and cooperating with the recovery
// coordinator at safe points.
func (n *Node) Run(p *sim.Process) {
	var batch int64
	flush := func() {
		if batch > 0 {
			p.Wait(batch)
			batch = 0
		}
	}
	for {
		if n.co.PauseRequested() {
			flush()
			if !n.co.Participate(p, n) {
				return // permanent failure
			}
			continue
		}
		r := n.gen.Next()
		switch r.Kind {
		case workload.End:
			flush()
			if n.hooks.WorkloadEnded != nil {
				n.hooks.WorkloadEnded(n.id)
			}
			n.co.ProcessorFinished(n.id)
			// Keep serving checkpoint/recovery rounds: the AM still
			// holds live state.
			if !n.co.ServeRounds(p, n) {
				return // permanent death
			}
			// A rollback rewound the generator; keep computing.
			if n.hooks.WorkloadResumed != nil {
				n.hooks.WorkloadResumed(n.id)
			}

		case workload.Instr:
			n.c.Instructions += r.N
			batch += r.N
			if batch >= maxBatch {
				flush()
			}

		case workload.Barrier:
			flush()
			if !n.co.AppBarrier(p, n) {
				return
			}

		case workload.Read:
			n.c.Instructions++
			n.c.Reads++
			if r.Shared {
				n.c.SharedReads++
			}
			n.read(p, r, &batch, flush)

		case workload.Write:
			n.c.Instructions++
			n.c.Writes++
			if r.Shared {
				n.c.SharedWrites++
			}
			n.write(p, r, &batch, flush)
		}
	}
}

func (n *Node) read(p *sim.Process, r workload.Ref, batch *int64, flush func()) {
	if n.strict {
		flush()
	}
	item := n.arch.ItemOf(r.Addr)
	if v, hit := n.cache.Access(r.Addr, false, 0, p.Now()+*batch); hit {
		*batch += n.arch.CacheAccess
		if *batch >= maxBatch {
			flush()
		}
		if n.strict && n.hooks.CheckRead != nil {
			n.hooks.CheckRead(n.id, item, v)
		}
		return
	}
	flush()
	p.Wait(n.arch.CacheAccess)
	value := n.coh.ReadItem(p, n.id, item)
	// The transaction blocked for many cycles; only fill the cache if
	// the AM copy is still live (a racing remote write may already have
	// invalidated it — filling would resurrect a stale value).
	st := n.coh.AM(n.id).State(item)
	if !st.Readable() {
		return
	}
	n.writebackEvicted(p, n.cache.Fill(r.Addr, st == proto.Exclusive, value, p.Now()))
}

func (n *Node) write(p *sim.Process, r workload.Ref, batch *int64, flush func()) {
	if n.strict {
		flush()
	}
	item := n.arch.ItemOf(r.Addr)
	value := n.nextValue()
	if _, ok := n.cache.Access(r.Addr, true, value, p.Now()+*batch); ok {
		// Write hit: the line is writable, so the local AM copy is
		// Exclusive; propagate the value (write-through value model,
		// write-back timing — see DESIGN.md).
		n.cache.SetItemValue(n.itemAddr(item), value)
		n.coh.WriteThrough(n.id, item, value)
		if n.hooks.OnWrite != nil {
			n.hooks.OnWrite(n.id, item, value)
		}
		*batch += n.arch.CacheAccess
		if *batch >= maxBatch {
			flush()
		}
		return
	}
	flush()
	p.Wait(n.arch.CacheAccess)
	n.coh.WriteItem(p, n.id, item, value)
	if n.hooks.OnWrite != nil {
		n.hooks.OnWrite(n.id, item, value)
	}
	// Only fill if exclusivity survived the transaction's completion
	// instant (a queued remote writer may have taken the item since),
	// and refresh any sibling line of the item already cached.
	if n.coh.AM(n.id).State(item) != proto.Exclusive {
		return
	}
	n.writebackEvicted(p, n.cache.FillDirty(r.Addr, value, p.Now()))
	n.cache.SetItemValue(n.itemAddr(item), value)
}

func (n *Node) writebackEvicted(p *sim.Process, dirty int) {
	if dirty == 0 {
		return
	}
	// Values are already coherent (write-through value model); charge
	// the physical write-back of the evicted dirty lines.
	p.Wait(int64(dirty) * n.arch.CacheFlushPerLine)
}
