package coherence

import (
	"fmt"

	"coma/internal/am"
	"coma/internal/mesh"
	"coma/internal/obs"
	"coma/internal/proto"
	"coma/internal/sim"
)

// ReadItem satisfies a processor read that missed the cache: it ensures a
// readable copy exists in the node's attraction memory (running the full
// coherence transaction if not) and returns the item's value. Called from
// the node's processor process; blocks for all simulated latencies.
func (e *Engine) ReadItem(p *sim.Process, n proto.NodeID, item proto.ItemID) uint64 {
	c := e.counters[n]
	c.AMReads++
	start := p.Now()

	// The local lookup pass costs a full AM access whether it hits or
	// detects the miss (Table 2 calibration, DESIGN.md §4.7). The slot
	// must be examined only *after* the access completes: a remote write
	// transaction may finish during those cycles, and serving the
	// pre-access copy would deliver a value older than the completed
	// write.
	e.useController(p, n, e.arch.AMAccess)
	if slot := e.ams[n].Slot(item); e.readable(slot.State) {
		c.FillsLocal++
		if slot.State == proto.SharedCK1 || slot.State == proto.SharedCK2 {
			c.SharedCKReads++
		}
		e.ams[n].Touch(e.arch.PageOf(item), p.Now())
		e.verifyRead(n, item, slot.Value)
		return slot.Value
	}
	c.AMReadMisses++

	lockStart := p.Now()
	e.lockItem(p, item)
	defer e.unlockItem(item)

	// Re-check: a transaction we queued behind may have installed a copy.
	if slot := e.ams[n].Slot(item); e.readable(slot.State) {
		e.useController(p, n, e.arch.AMAccess)
		c.FillsLocal++
		if e.obs != nil {
			e.obs.Emit(obs.Event{Time: p.Now(), Kind: obs.KReadFill, Node: n, Item: item,
				A: obs.FillLocal, B: p.Now() - start})
		}
		e.verifyRead(n, item, slot.Value)
		return slot.Value
	}

	// A true miss: this is one traced transaction from here to the fill.
	var txn proto.TxnID
	if e.obs != nil {
		txn = e.mintTxn(n)
		e.obs.Emit(obs.Event{Time: p.Now(), Kind: obs.KTxnBegin, Node: n, Item: item,
			Txn: txn, A: obs.TxnRead, B: p.Now() - lockStart})
	}

	// Table 1: a read access to a local Inv-CK copy first injects the
	// recovery copy to free the slot, then proceeds as a miss.
	if st := e.ams[n].State(item); st == proto.InvCK1 || st == proto.InvCK2 {
		e.inject(p, n, item, true, proto.InjectReadInvCK, txn)
	} else if st == proto.SharedCK1 || st == proto.SharedCK2 {
		// Only reachable under the NoSharedCKReads ablation: the copy
		// is present but the processor may not read it; treat like the
		// Inv-CK case.
		e.inject(p, n, item, true, proto.InjectReadInvCK, txn)
	}

	e.ensureFrame(p, n, item, txn)

	page := e.arch.PageOf(item)
	e.beginInstall(n, page)
	defer e.endInstall(n, page)

	m := e.fetch(p, n, item, proto.MsgReadReq, txn)
	e.useController(p, n, e.arch.AMAccess) // install + cache fill
	var value uint64
	src := obs.FillRemote
	switch m.Kind {
	case proto.MsgColdGrant:
		// Initialised-background memory: a read-only zero copy.
		c.FillsCold++
		src = obs.FillCold
		//coma:transition Invalid -> Shared
		e.ams[n].Set(item, am.Slot{State: proto.Shared, Value: 0, Partner: proto.None})
	case proto.MsgDataReply:
		c.FillsRemote++
		value = m.Value
		//coma:transition Invalid -> Shared
		e.ams[n].Set(item, am.Slot{State: proto.Shared, Value: value, Partner: proto.None})
	default:
		panic(fmt.Sprintf("coherence: read reply %v", m))
	}
	if e.obs != nil {
		e.obs.Emit(obs.Event{Time: p.Now(), Kind: obs.KReadFill, Node: n, Item: item,
			A: src, B: p.Now() - start})
		e.obs.Emit(obs.Event{Time: p.Now(), Kind: obs.KTxnEnd, Node: n, Item: item,
			Txn: txn, A: src, B: p.Now() - start})
	}
	e.verifyRead(n, item, value)
	return value
}

// WriteItem satisfies a processor write that could not complete in the
// cache: it obtains an Exclusive copy in the node's attraction memory
// (invalidating all other current copies, downgrading Shared-CK pairs to
// Inv-CK under the ECP) and applies the new value.
func (e *Engine) WriteItem(p *sim.Process, n proto.NodeID, item proto.ItemID, value uint64) {
	c := e.counters[n]
	c.AMWrites++
	start := p.Now()

	// Lookup pass first, state examined after it completes (same
	// write-completion race as in ReadItem: exclusivity observed before
	// the access cycles could be revoked during them).
	e.useController(p, n, e.arch.AMAccess)
	if e.ams[n].State(item) == proto.Exclusive {
		e.ams[n].Set(item, am.Slot{State: proto.Exclusive, Value: value, Partner: proto.None})
		e.ams[n].Touch(e.arch.PageOf(item), p.Now())
		return
	}
	c.AMWriteMisses++

	lockStart := p.Now()
	e.lockItem(p, item)
	defer e.unlockItem(item)

	if e.ams[n].State(item) == proto.Exclusive { // granted while queued
		e.useController(p, n, e.arch.AMAccess)
		// Not derivable statically: the first Exclusive test failed, but
		// the state changed while this writer queued on the item lock.
		//coma:transition Exclusive -> Exclusive
		e.ams[n].Set(item, am.Slot{State: proto.Exclusive, Value: value, Partner: proto.None})
		if e.obs != nil {
			e.obs.Emit(obs.Event{Time: p.Now(), Kind: obs.KWriteFill, Node: n, Item: item,
				A: obs.FillLocal, B: p.Now() - start})
		}
		return
	}

	var txn proto.TxnID
	if e.obs != nil {
		txn = e.mintTxn(n)
		e.obs.Emit(obs.Event{Time: p.Now(), Kind: obs.KTxnBegin, Node: n, Item: item,
			Txn: txn, A: obs.TxnWrite, B: p.Now() - lockStart})
	}

	// Table 1: writes to local recovery copies first inject them.
	switch st := e.ams[n].State(item); st {
	case proto.InvCK1, proto.InvCK2:
		e.inject(p, n, item, true, proto.InjectWriteInvCK, txn)
	case proto.SharedCK1, proto.SharedCK2:
		e.inject(p, n, item, true, proto.InjectWriteSharedCK, txn)
	case proto.Invalid, proto.Shared, proto.MasterShared, proto.Exclusive:
		// Current-state copies go through the miss path below unchanged.
	case proto.PreCommit1, proto.PreCommit2:
		// Unreachable: processors are quiesced while pre-commit copies
		// exist (the establishment runs the machine single-phase).
		panic(fmt.Sprintf("coherence: write on node %v hit item %d in transient %v", n, item, st))
	}

	e.ensureFrame(p, n, item, txn)

	switch st := e.ams[n].State(item); st {
	case proto.MasterShared:
		// Local master: invalidate the sharers, then upgrade in place.
		e.invalidateSharers(p, n, item, txn)
		e.useController(p, n, e.arch.AMAccess)
		e.ams[n].Set(item, am.Slot{State: proto.Exclusive, Value: value, Partner: proto.None})
		if e.obs != nil {
			e.obs.Emit(obs.Event{Time: p.Now(), Kind: obs.KWriteFill, Node: n, Item: item,
				A: obs.FillLocal, B: p.Now() - start})
			e.obs.Emit(obs.Event{Time: p.Now(), Kind: obs.KTxnEnd, Node: n, Item: item,
				Txn: txn, A: obs.FillLocal, B: p.Now() - start})
		}

	case proto.Shared, proto.Invalid:
		page := e.arch.PageOf(item)
		e.beginInstall(n, page)
		defer e.endInstall(n, page)
		ackFut := e.registerAcks(item)
		m := e.fetch(p, n, item, proto.MsgWriteReq, txn)
		switch m.Kind {
		case proto.MsgColdGrant, proto.MsgDataReply:
			e.expectAcks(item, int(m.Arg))
		default:
			panic(fmt.Sprintf("coherence: write reply %v", m))
		}
		ackFut.Await(p)
		e.finishAcks(item)
		e.useController(p, n, e.arch.AMAccess)
		src := obs.FillRemote
		if m.Kind == proto.MsgColdGrant {
			e.counters[n].FillsCold++
			src = obs.FillCold
		}
		e.ams[n].Set(item, am.Slot{State: proto.Exclusive, Value: value, Partner: proto.None})
		if e.obs != nil {
			e.obs.Emit(obs.Event{Time: p.Now(), Kind: obs.KWriteFill, Node: n, Item: item,
				A: src, B: p.Now() - start})
			e.obs.Emit(obs.Event{Time: p.Now(), Kind: obs.KTxnEnd, Node: n, Item: item,
				Txn: txn, A: src, B: p.Now() - start})
		}

	default:
		panic(fmt.Sprintf("coherence: write on node %v found item %d in %v", n, item, st))
	}
}

// WriteThrough updates the value of a locally Exclusive item without a
// coherence transaction: the cache write-hit path. The simulator
// propagates values eagerly (write-through value model) while the timing
// of the physical write-back is charged at flush points.
func (e *Engine) WriteThrough(n proto.NodeID, item proto.ItemID, value uint64) {
	s := e.ams[n].Slot(item)
	if s.State != proto.Exclusive {
		panic(fmt.Sprintf("coherence: write-through on node %v to item %d in %v", n, item, s.State))
	}
	e.ams[n].Set(item, am.Slot{State: proto.Exclusive, Value: value, Partner: proto.None})
}

// fetch sends a read/write request to the item's home and waits for the
// final response (grant or data), which may come from the home (cold) or
// be forwarded to and answered by the owner.
func (e *Engine) fetch(p *sim.Process, n proto.NodeID, item proto.ItemID, kind proto.MsgKind, txn proto.TxnID) mesh.Message {
	return e.request(p, mesh.Message{
		Kind:      kind,
		Src:       n,
		Dst:       e.dir.Home(item),
		Item:      item,
		Requester: n,
		Txn:       txn,
	})
}

// invalidateSharers sends invalidations to every sharer of an item owned
// locally and waits for all acknowledgements.
func (e *Engine) invalidateSharers(p *sim.Process, n proto.NodeID, item proto.ItemID, txn proto.TxnID) {
	entry, ok := e.dir.Lookup(item)
	if !ok {
		panic(fmt.Sprintf("coherence: owner %v of item %d has no directory entry", n, item))
	}
	ackFut := e.registerAcks(item)
	count := 0
	entry.Sharers.ForEach(func(s proto.NodeID) {
		if s == n {
			return
		}
		count++
		e.net.Send(mesh.Message{
			Kind:      proto.MsgInvalidate,
			Src:       n,
			Dst:       s,
			Item:      item,
			Requester: n,
			Txn:       txn,
		})
	})
	entry.Sharers.Clear()
	e.expectAcks(item, count)
	ackFut.Await(p)
	e.finishAcks(item)
}

// ensureFrame guarantees the node has an AM page frame for the item's
// page, performing the first-touch anchor allocation and any replacement
// (with injection of pinned victims) that page allocation requires.
// txn is the transaction that needs the frame; injections forced by the
// replacement parent to it.
func (e *Engine) ensureFrame(p *sim.Process, n proto.NodeID, item proto.ItemID, txn proto.TxnID) {
	page := e.arch.PageOf(item)
	// A replacement may be mid-flight on this very frame: wait it out
	// (the frame will either survive or be reallocated below).
	for e.ams[n].Evicting(page) {
		p.Wait(e.arch.AMAccess)
	}
	if e.ams[n].HasFrame(page) {
		e.ams[n].Touch(page, p.Now())
		return
	}

	// Global first touch: reserve the irreplaceable anchor frames (the
	// paper's "four pages statically allocated as irreplaceable"; one in
	// a standard KSR1-like machine).
	if e.pageAnchors[page] == nil {
		anchors := e.newAnchorList(n)
		e.pageAnchors[page] = anchors
		for _, a := range anchors {
			e.allocFrame(p, a, page, true, txn)
			if a != n {
				// Timing-only notification to the remote anchor.
				e.net.Send(mesh.Message{Kind: proto.MsgPageAlloc, Src: n, Dst: a, Item: e.arch.FirstItem(page), Txn: txn})
			}
		}
	}

	if e.ams[n].HasFrame(page) { // n was among the anchors
		return
	}
	e.useController(p, n, e.arch.AMAccess)
	e.allocFrame(p, n, page, false, txn)
}

// allocFrame gives node n a frame for page, evicting to free a way when
// the set is full, and marks an anchor frame irreplaceable. An eviction
// yields, and so may the caller before it (ensureFrame waits for the AM
// controller): an injection landing meanwhile may allocate the page's
// frame itself or take the way the eviction freed, so the frame and the
// free way are checked again after every wait.
func (e *Engine) allocFrame(p *sim.Process, n proto.NodeID, page proto.PageID, irreplaceable bool, txn proto.TxnID) {
	for !e.ams[n].HasFrame(page) {
		if e.ams[n].FreeWay(page) {
			e.ams[n].AllocFrame(page, irreplaceable, p.Now())
			return
		}
		e.evictFrame(p, n, page, txn)
	}
	if irreplaceable {
		e.ams[n].MarkIrreplaceable(page)
	}
}

// evictFrame frees a way in the page's set on node n: it picks the
// least-recently-used replaceable frame not busy with an in-flight
// transaction, marks it mid-eviction so concurrent injections cannot
// land in it, injects every pinned item (masters and recovery copies
// must survive replacement), drops Shared items from sharer sets, and
// deallocates the frame.
func (e *Engine) evictFrame(p *sim.Process, n proto.NodeID, page proto.PageID, txn proto.TxnID) {
	victim := proto.NoPage
	for attempt := 0; ; attempt++ {
		for _, cand := range e.ams[n].VictimPages(page) {
			if !e.installPending(n, cand) {
				victim = cand
				break
			}
		}
		if victim != proto.NoPage {
			break
		}
		if attempt > 10_000 {
			panic(fmt.Sprintf("coherence: node %v cannot evict for page %d: every way irreplaceable or busy",
				n, page))
		}
		// Every candidate is waiting on an in-flight install or another
		// eviction; stall like a real replacement queue and retry.
		p.Wait(e.arch.AMAccess)
	}
	e.ams[n].SetEvicting(victim, true)
	for _, it := range e.ams[n].PinnedItems(victim) {
		if !e.tryLockItem(it) {
			// Another transaction is mid-flight on this item; it will
			// leave the item in some pinned state we can still inject
			// once it finishes. Block behind it.
			e.lockItem(p, it)
		}
		var cause proto.InjectCause
		switch st := e.ams[n].State(it); st {
		case proto.Exclusive, proto.MasterShared:
			cause = proto.InjectReplaceMaster
		case proto.SharedCK1, proto.SharedCK2:
			cause = proto.InjectReplaceSharedCK
		case proto.InvCK1, proto.InvCK2:
			cause = proto.InjectReplaceInvCK
		case proto.Invalid, proto.Shared:
			// The in-flight transaction we waited for already moved or
			// released the copy.
			e.unlockItem(it)
			continue
		default:
			panic(fmt.Sprintf("coherence: evicting item %d in %v", it, st))
		}
		e.inject(p, n, it, true, cause, txn)
		e.unlockItem(it)
	}
	// Remaining Shared items are silently dropped; keep the sharer sets
	// accurate.
	first := e.arch.FirstItem(victim)
	for i := 0; i < e.arch.ItemsPerPage(); i++ {
		it := first + proto.ItemID(i)
		if e.ams[n].State(it) == proto.Shared {
			if entry, ok := e.dir.Lookup(it); ok {
				entry.Sharers.Remove(n)
			}
			e.ams[n].SetState(it, proto.Invalid)
			e.cacheOps.InvalidateItem(n, it)
		}
	}
	e.ams[n].DropFrame(victim)
}

// verifyRead runs the oracle hook on a value about to reach a processor.
func (e *Engine) verifyRead(n proto.NodeID, item proto.ItemID, value uint64) {
	if e.checkRead != nil {
		e.checkRead(n, item, value)
	}
}
