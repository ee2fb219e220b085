package coherence

import (
	"slices"
	"sort"

	"coma/internal/am"
	"coma/internal/directory"
	"coma/internal/mesh"
	"coma/internal/obs"
	"coma/internal/proto"
	"coma/internal/sim"
)

// CreatePhase runs one node's create phase of a recovery-point
// establishment (Fig. 2 of the paper): every item modified since the last
// recovery point (Exclusive or MasterShared) becomes the PreCommit1 copy,
// and a second PreCommit2 copy is created — by upgrading an existing
// Shared replica when possible (no data transfer), otherwise by injecting
// a copy into another AM. Identification of the next modified item
// overlaps the previous injection (the paper's modified-line tree), so
// only the replication work costs time. Called from the node's processor
// process while the machine is quiesced.
func (e *Engine) CreatePhase(p *sim.Process, n proto.NodeID) {
	start := p.Now()
	if e.obs != nil {
		e.obs.Emit(obs.Event{Time: start, Kind: obs.KPhaseBegin, Node: n,
			Item: proto.NoItem, A: int64(obs.PhaseCreate)})
	}
	c := e.counters[n]
	// The work list must be private to this call: every node's create
	// phase runs concurrently during an establishment.
	modified := e.ams[n].ModifiedItems(make([]proto.ItemID, 0, 256))
	for _, item := range modified {
		e.lockItem(p, item)
		st := e.ams[n].State(item)
		switch st {
		case proto.Exclusive:
			e.ams[n].SetState(item, proto.PreCommit1)
			e.cacheOps.DowngradeItem(n, item)
			target := e.inject(p, n, item, false, proto.InjectCheckpoint, e.roundTxn)
			e.ams[n].SetPartner(item, target)
			c.CkptItemsReplicated++

		case proto.MasterShared:
			e.ams[n].SetState(item, proto.PreCommit1)
			e.cacheOps.DowngradeItem(n, item)
			entry := e.dir.Lookup(item)
			sharer := proto.None
			if !e.opts.NoReplicationReuse && entry != nil {
				sharer = entry.Sharers.First()
			}
			if sharer != proto.None {
				// Replication reuse: upgrade an existing Shared copy.
				entry.Sharers.Remove(sharer)
				e.request(p, mesh.Message{
					Kind: proto.MsgPreCommitUpgrade,
					Src:  n,
					Dst:  sharer,
					Item: item,
					Txn:  e.roundTxn,
				})
				e.ams[n].SetPartner(item, sharer)
				c.CkptItemsReused++
			} else {
				target := e.inject(p, n, item, false, proto.InjectCheckpoint, e.roundTxn)
				e.ams[n].SetPartner(item, target)
				c.CkptItemsReplicated++
			}

		case proto.Invalid, proto.Shared, proto.SharedCK1, proto.SharedCK2,
			proto.InvCK1, proto.InvCK2, proto.PreCommit1, proto.PreCommit2:
			// The item left the modified set while we were busy with a
			// previous one (impossible while quiesced, but harmless).
		}
		e.unlockItem(item)
	}
	c.CkptCreateCycles += p.Now() - start
	if e.obs != nil {
		e.obs.Emit(obs.Event{Time: p.Now(), Kind: obs.KPhaseEnd, Node: n,
			Item: proto.NoItem, A: int64(obs.PhaseCreate), B: p.Now() - start})
	}
}

// CommitScan runs one node's (purely local) commit phase: PreCommit
// copies become the new Shared-CK recovery point, Inv-CK copies of the
// previous recovery point are discarded.
func (e *Engine) CommitScan(p *sim.Process, n proto.NodeID) {
	start := p.Now()
	if e.obs != nil {
		e.obs.Emit(obs.Event{Time: start, Kind: obs.KPhaseBegin, Node: n,
			Item: proto.NoItem, A: int64(obs.PhaseCommit)})
	}
	p.Wait(e.ams[n].CommitScanCost())
	e.ams[n].ForEachAllocated(func(item proto.ItemID, s *slotRef) {
		switch s.State {
		case proto.PreCommit1:
			s.State = proto.SharedCK1
		case proto.PreCommit2:
			s.State = proto.SharedCK2
		case proto.InvCK1, proto.InvCK2:
			s.State = proto.Invalid
			s.Partner = proto.None
		case proto.Invalid, proto.Shared, proto.MasterShared, proto.Exclusive,
			proto.SharedCK1, proto.SharedCK2:
			// Unmodified current copies and the surviving recovery point
			// pass through the commit scan untouched.
		}
	})
	e.counters[n].CkptCommitCycles += p.Now() - start
	if e.obs != nil {
		e.obs.Emit(obs.Event{Time: p.Now(), Kind: obs.KPhaseEnd, Node: n,
			Item: proto.NoItem, A: int64(obs.PhaseCommit), B: p.Now() - start})
	}
}

// RecoveryScan runs one node's rollback scan (§3.4): all current and
// pre-commit copies are invalidated (Shared copies cannot be told apart
// from recovery-consistent data, so they go too), and Inv-CK copies are
// restored to Shared-CK. The processor cache is invalidated by the node
// layer alongside this call.
func (e *Engine) RecoveryScan(p *sim.Process, n proto.NodeID) {
	start := p.Now()
	if e.obs != nil {
		e.obs.Emit(obs.Event{Time: start, Kind: obs.KPhaseBegin, Node: n,
			Item: proto.NoItem, A: int64(obs.PhaseRecoveryScan)})
	}
	p.Wait(e.ams[n].CommitScanCost()) // same scan structure as the commit phase
	e.ams[n].ForEachAllocated(func(item proto.ItemID, s *slotRef) {
		switch s.State {
		case proto.Shared, proto.Exclusive, proto.MasterShared,
			proto.PreCommit1, proto.PreCommit2:
			s.State = proto.Invalid
			s.Partner = proto.None
		case proto.InvCK1:
			s.State = proto.SharedCK1
		case proto.InvCK2:
			s.State = proto.SharedCK2
		case proto.Invalid, proto.SharedCK1, proto.SharedCK2:
			// Free slots and the unmodified recovery point are already in
			// their rolled-back state.
		}
	})
	if e.obs != nil {
		e.obs.Emit(obs.Event{Time: p.Now(), Kind: obs.KPhaseEnd, Node: n,
			Item: proto.NoItem, A: int64(obs.PhaseRecoveryScan), B: p.Now() - start})
	}
}

// slotRef aliases the AM's slot type for the scan callbacks.
type slotRef = am.Slot

// RebuildDirectory reconstructs every localisation pointer and sharing
// set after a rollback: the Shared-CK1 holder becomes the owner; items
// with only a surviving CK2 copy are left ownerless for Reconfigure to
// repair; items with no recovery copy (created after the last recovery
// point, or lost to an unrecoverable multiple failure) are dropped. It
// returns the dropped items so the machine can distinguish legitimate
// rollback of young items from data loss.
func (e *Engine) RebuildDirectory() []proto.ItemID {
	if e.ck1 == nil {
		e.ck1 = make(map[proto.ItemID]proto.NodeID)
		e.ck2 = make(map[proto.ItemID]proto.NodeID)
	}
	ck1, ck2 := e.ck1, e.ck2
	clear(ck1)
	clear(ck2)
	for _, n := range e.dir.AliveNodes() {
		e.ams[n].ForEachAllocated(func(item proto.ItemID, s *slotRef) {
			switch s.State {
			case proto.SharedCK1:
				ck1[item] = n
			case proto.SharedCK2:
				ck2[item] = n
			case proto.Invalid, proto.Shared, proto.MasterShared, proto.Exclusive,
				proto.InvCK1, proto.InvCK2, proto.PreCommit1, proto.PreCommit2:
				// Only the committed Shared-CK pairs locate survivors; the
				// recovery scan already cleared everything else.
			}
		})
	}
	var dropped []proto.ItemID
	e.dir.ForEach(func(item proto.ItemID, entry *dirEntry) {
		entry.Sharers.Clear()
		if o, ok := ck1[item]; ok {
			entry.Owner = o
			return
		}
		if _, ok := ck2[item]; ok {
			entry.Owner = proto.None // Reconfigure promotes the CK2 copy
			return
		}
		dropped = append(dropped, item)
	})
	slices.Sort(dropped)
	for _, item := range dropped {
		e.dir.Drop(item)
	}
	return dropped
}

// reconfWork is one Shared-CK copy ReconfigureNode must re-pair, and
// whether it first promotes itself from CK2 to CK1.
type reconfWork struct {
	item    proto.ItemID
	promote bool
}

// dirEntry aliases the directory entry type for the rebuild callback.
type dirEntry = directory.Entry

// ReconfigureNode restores recovery-data persistence on one surviving
// node after failures (§3.4): every local Shared-CK copy whose partner
// died is re-paired — a surviving CK2 first promotes itself to CK1 and
// takes ownership, then a fresh secondary copy is injected into a safe
// node. dead reports whether a node was lost (its AM contents are gone).
// It returns the number of copies re-created.
func (e *Engine) ReconfigureNode(p *sim.Process, n proto.NodeID, dead func(proto.NodeID) bool) int {
	start := p.Now()
	if e.obs != nil {
		e.obs.Emit(obs.Event{Time: start, Kind: obs.KPhaseBegin, Node: n,
			Item: proto.NoItem, A: int64(obs.PhaseReconfigure)})
	}
	todo := e.reconf[n][:0]
	e.ams[n].ForEachAllocated(func(item proto.ItemID, s *slotRef) {
		switch s.State {
		case proto.SharedCK1:
			if dead(s.Partner) {
				todo = append(todo, reconfWork{item, false})
			}
		case proto.SharedCK2:
			if dead(s.Partner) {
				todo = append(todo, reconfWork{item, true})
			}
		case proto.Invalid, proto.Shared, proto.MasterShared, proto.Exclusive,
			proto.InvCK1, proto.InvCK2, proto.PreCommit1, proto.PreCommit2:
			// Reconfiguration runs right after a rollback: only committed
			// Shared-CK copies can need re-pairing.
		}
	})
	for _, w := range todo {
		e.lockItem(p, w.item)
		if w.promote {
			//coma:transition SharedCK2 -> SharedCK1
			e.ams[n].SetState(w.item, proto.SharedCK1)
			entry := e.dir.Ensure(w.item)
			entry.Owner = n
			if h := e.dir.Home(w.item); h != n {
				e.net.Send(mesh.Message{Kind: proto.MsgHomeUpdate, Src: n, Dst: h, Item: w.item, Txn: e.roundTxn})
			}
		}
		target := e.inject(p, n, w.item, false, proto.InjectReconfigure, e.roundTxn)
		e.ams[n].SetPartner(w.item, target)
		e.unlockItem(w.item)
	}
	e.reconf[n] = todo
	if e.obs != nil {
		e.obs.Emit(obs.Event{Time: p.Now(), Kind: obs.KReconfig, Node: n,
			Item: proto.NoItem, A: int64(len(todo))})
		e.obs.Emit(obs.Event{Time: p.Now(), Kind: obs.KPhaseEnd, Node: n,
			Item: proto.NoItem, A: int64(obs.PhaseReconfigure), B: p.Now() - start})
	}
	return len(todo)
}

// RemapAnchors replaces dead anchor nodes of every touched page with live
// ring successors and reserves their irreplaceable frames. Called once
// after a permanent failure, from the recovery manager's process.
func (e *Engine) RemapAnchors(p *sim.Process, dead func(proto.NodeID) bool) {
	pages := make([]proto.PageID, 0, len(e.pageAnchors))
	for page := range e.pageAnchors {
		pages = append(pages, page)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	for _, page := range pages {
		anchors := e.pageAnchors[page]
		present := make(map[proto.NodeID]bool, len(anchors))
		for _, a := range anchors {
			if !dead(a) {
				present[a] = true
			}
		}
		changed := false
		for i, a := range anchors {
			if !dead(a) {
				continue
			}
			// Walk the ring from the dead anchor to a live node not
			// already anchoring this page.
			cand := e.dir.NextAlive(a)
			for present[cand] && len(present) < e.dir.AliveCount() {
				cand = e.dir.NextAlive(cand)
			}
			anchors[i] = cand
			present[cand] = true
			changed = true
			e.allocFrame(p, cand, page, true, e.roundTxn)
		}
		if changed {
			e.pageAnchors[page] = anchors
		}
	}
}

// RestoreAnchors re-reserves the anchor frames a transiently failed node
// lost when its AM was cleared, so the injection-termination guarantee
// holds again once it rejoins.
func (e *Engine) RestoreAnchors(p *sim.Process, n proto.NodeID) {
	pages := make([]proto.PageID, 0)
	for page, anchors := range e.pageAnchors {
		for _, a := range anchors {
			if a == n {
				pages = append(pages, page)
				break
			}
		}
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	for _, page := range pages {
		e.allocFrame(p, n, page, true, e.roundTxn)
	}
}
