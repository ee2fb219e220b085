// Package coherence implements the machine-wide cache-coherence protocol
// engine of the simulated COMA: the standard COMA-F-style write-invalidate
// protocol (Invalid / Shared / MasterShared / Exclusive, home-based
// localisation pointers, owner-resident directory entries, injection of
// master copies on replacement) and the paper's Extended Coherence
// Protocol, which adds the recovery states and the item-level mechanics of
// recovery-point establishment, rollback and reconfiguration.
//
// Concurrency model: transactions on the same item are serialised by a
// per-item FIFO lock (the hardware serialises at the owner; the lock
// models the same order without modelling protocol races — see DESIGN.md
// §4.2). All simulator state mutations for a transaction happen while its
// initiator holds the item lock; network messages carry the timing.
package coherence

import (
	"fmt"

	"coma/internal/am"
	"coma/internal/config"
	"coma/internal/directory"
	"coma/internal/mesh"
	"coma/internal/obs"
	"coma/internal/proto"
	"coma/internal/sim"
	"coma/internal/stats"
)

// Protocol selects the coherence protocol variant.
type Protocol uint8

const (
	// Standard is the baseline COMA-F-style protocol.
	Standard Protocol = iota
	// ECP is the paper's Extended Coherence Protocol with transparent
	// recovery-data management.
	ECP
)

func (p Protocol) String() string {
	if p == Standard {
		return "standard"
	}
	return "ecp"
}

// ParseProtocol is the inverse of String.
func ParseProtocol(name string) (Protocol, bool) {
	switch name {
	case "standard":
		return Standard, true
	case "ecp":
		return ECP, true
	}
	return 0, false
}

// CacheOps lets the protocol engine manipulate the per-node processor
// caches (implemented by the node layer).
type CacheOps interface {
	// InvalidateItem drops the cache lines covering the item on the node.
	InvalidateItem(n proto.NodeID, item proto.ItemID)
	// DowngradeItem removes write permission from the cache lines
	// covering the item on the node, keeping them readable.
	DowngradeItem(n proto.NodeID, item proto.ItemID)
}

// Options tunes protocol behaviour for ablation studies.
type Options struct {
	// NoReplicationReuse disables the paper's optimisation of turning an
	// existing Shared copy into the second recovery copy without a data
	// transfer (§3.3): every replication then moves data.
	NoReplicationReuse bool
	// NoSharedCKReads makes Shared-CK copies unreadable by their local
	// processor (they still answer remote misses, which the protocol
	// requires), ablating one of the claimed ECP benefits: that recovery
	// data stays accessible until first modification.
	NoSharedCKReads bool
}

// Engine is the protocol engine for one simulated machine.
type Engine struct {
	eng      *sim.Engine
	arch     config.Arch
	protocol Protocol
	opts     Options
	net      *mesh.Network
	dir      *directory.Directory
	ams      []*am.AM
	ctl      []*sim.Resource // AM controllers, capacity arch.AMControllers
	counters []*stats.Node
	cacheOps CacheOps

	locks map[proto.ItemID]*itemLock
	acks  map[proto.ItemID]*ackState

	// freeLocks holds released item locks for reuse, queue capacity
	// kept, so a transaction on a free item allocates no lock.
	freeLocks []*itemLock
	// freeAcks holds finished ack collections for reuse, the same way.
	freeAcks []*ackState

	// replies pools the reply futures of request/reply transactions
	// (see request and DESIGN.md §10.3 for the ownership rule).
	replies sim.FuturePool[mesh.Message]

	// msgs keeps each delivered request until its handler has held an
	// AM controller for the service time: handle stores the message in
	// a free slot and every event of the handler carries the slot index
	// (see OnEvent), the scheme mesh.Network.pending uses for
	// deliveries. msgFree lists reusable slots.
	msgs    []handled
	msgFree []int32

	// pendingInstalls[n][page] counts in-flight misses on node n that
	// will install into the page's frame when their data arrives; such a
	// frame must not be replaced meanwhile.
	pendingInstalls []map[proto.PageID]int

	// pageAnchors records, per touched page, the nodes holding its
	// irreplaceable frames. The lists are carved from blocks of
	// anchorBlockPages pages' worth; anchorSpare is the unused tail of
	// the latest block.
	pageAnchors map[proto.PageID][]proto.NodeID
	anchorSpare []proto.NodeID

	// ck1 and ck2 locate the committed Shared-CK copies during
	// RebuildDirectory; they are kept across rollbacks and cleared by
	// each one.
	ck1, ck2 map[proto.ItemID]proto.NodeID
	// dropped holds the items RebuildDirectory discards, kept across
	// rollbacks.
	dropped []proto.ItemID
	// reconf[n] is node n's ReconfigureNode work list, kept across
	// rollbacks. Each node has its own: the nodes reconfigure at once,
	// and each parks while it injects.
	reconf [][]reconfWork

	// checkRead, when set, validates every value delivered to a
	// processor against the machine oracle.
	checkRead func(n proto.NodeID, item proto.ItemID, value uint64)

	// obs, when set, receives protocol events (misses, injections,
	// checkpoint phases). Each emission site is guarded by one nil
	// check; a disabled engine pays nothing else.
	obs obs.Observer

	// txnSeq holds the per-origin transaction counters behind mintTxn.
	// Only touched when obs is non-nil, so transaction IDs exist exactly
	// when somebody records them and a disabled run stays untouched.
	txnSeq []int64
	// roundTxn is the coordinator's current round transaction; phase work
	// (checkpoint replication, reconfiguration, anchor repair) parents
	// its injections to it. NoTxn outside rounds.
	roundTxn proto.TxnID
}

// New wires a protocol engine to the machine's parts and registers the
// per-node message handlers on the mesh.
func New(eng *sim.Engine, arch config.Arch, protocol Protocol, opts Options,
	net *mesh.Network, dir *directory.Directory, ams []*am.AM,
	counters []*stats.Node, cacheOps CacheOps) *Engine {

	e := &Engine{
		eng:         eng,
		arch:        arch,
		protocol:    protocol,
		opts:        opts,
		net:         net,
		dir:         dir,
		ams:         ams,
		counters:    counters,
		cacheOps:    cacheOps,
		locks:       make(map[proto.ItemID]*itemLock),
		acks:        make(map[proto.ItemID]*ackState),
		pageAnchors: make(map[proto.PageID][]proto.NodeID),
	}
	e.ctl = make([]*sim.Resource, arch.Nodes)
	e.pendingInstalls = make([]map[proto.PageID]int, arch.Nodes)
	e.txnSeq = make([]int64, arch.Nodes)
	e.reconf = make([][]reconfWork, arch.Nodes)
	for i := range e.ctl {
		e.ctl[i] = sim.NewResource(fmt.Sprintf("amctl%d", i), arch.AMControllers)
		e.pendingInstalls[i] = make(map[proto.PageID]int)
		n := proto.NodeID(i)
		net.SetHandler(n, func(m mesh.Message) { e.dispatch(n, m) })
	}
	return e
}

// beginInstall reserves a node's page frame against replacement while a
// miss is in flight; endInstall releases it.
func (e *Engine) beginInstall(n proto.NodeID, page proto.PageID) {
	e.pendingInstalls[n][page]++
}

func (e *Engine) endInstall(n proto.NodeID, page proto.PageID) {
	m := e.pendingInstalls[n]
	if m[page] <= 1 {
		delete(m, page)
	} else {
		m[page]--
	}
}

// installPending reports whether an in-flight miss will install into the
// node's frame for the page.
func (e *Engine) installPending(n proto.NodeID, page proto.PageID) bool {
	return e.pendingInstalls[n][page] > 0
}

// Protocol returns the active protocol variant.
func (e *Engine) Protocol() Protocol { return e.protocol }

// Directory exposes the localisation directory (for core and tests).
func (e *Engine) Directory() *directory.Directory { return e.dir }

// AM returns a node's attraction memory (for core and tests).
func (e *Engine) AM(n proto.NodeID) *am.AM { return e.ams[n] }

// SetReadChecker installs the oracle validation hook.
func (e *Engine) SetReadChecker(fn func(n proto.NodeID, item proto.ItemID, value uint64)) {
	e.checkRead = fn
}

// SetObserver installs the observability sink (nil disables it).
func (e *Engine) SetObserver(o obs.Observer) { e.obs = o }

// mintTxn mints the next transaction ID originated by node n. Callers
// must hold a non-nil observer: IDs are deterministic per seed because
// transaction starts are, but they exist only when a trace is recorded,
// so an untraced run carries no IDs anywhere.
func (e *Engine) mintTxn(n proto.NodeID) proto.TxnID {
	e.txnSeq[n]++
	return proto.MakeTxnID(n, e.txnSeq[n])
}

// SetRoundTxn names the coordinator round transaction that subsequent
// checkpoint/recovery phase work should parent to (NoTxn to clear).
func (e *Engine) SetRoundTxn(t proto.TxnID) { e.roundTxn = t }

// dispatch routes a delivered message to its handler. It runs in event
// context. A request is served by a handler at its destination node
// that holds one of the node's AM controllers for the request's service
// time, then runs its body (see handle).
func (e *Engine) dispatch(n proto.NodeID, m mesh.Message) {
	switch m.Kind {
	case proto.MsgReadReq, proto.MsgWriteReq, proto.MsgInjectProbe:
		e.handle(m, e.arch.DirLookup)
	case proto.MsgReadFwd, proto.MsgWriteFwd, proto.MsgInjectData:
		e.handle(m, e.arch.MemTransfer)
	case proto.MsgInvalidate, proto.MsgPreCommitUpgrade:
		e.handle(m, e.arch.AMAccess)
	case proto.MsgInvalidateAck:
		e.ackArrived(m.Item, 1)
	case proto.MsgHomeUpdate, proto.MsgPartnerUpdate, proto.MsgPageAlloc:
		// Timing-only traffic: the simulator state was already updated
		// under the initiating transaction's item lock (DESIGN.md §4.2).
	case proto.MsgColdGrant, proto.MsgDataReply, proto.MsgInjectAccept,
		proto.MsgInjectRefuse, proto.MsgInjectAck, proto.MsgPreCommitUpgradeAck:
		// Pure responses: the Reply future (completed by the mesh on
		// delivery) wakes the waiting initiator; nothing else to do.
	case proto.MsgCkptPrepare, proto.MsgCkptCreateDone, proto.MsgCkptCommit,
		proto.MsgCkptCommitDone, proto.MsgRecover, proto.MsgRecoverDone:
		// Checkpoint/recovery control traffic is timing-only here; the
		// core coordinator drives the phases through direct calls.
	default:
		panic(fmt.Sprintf("coherence: node %v cannot handle %v", n, m))
	}
}

// handlerStep is how far a handler has got; see OnEvent.
type handlerStep uint8

const (
	stepStart   handlerStep = iota // dispatched
	stepAckSent                    // inject data: the ack delay is over
	stepGranted                    // Release handed a controller over
	stepServed                     // the service time is over
)

// handled is one slot of the handler slab: a delivered request, the
// controller time its handler holds, and how far the handler has got.
type handled struct {
	m       mesh.Message
	service int64
	step    handlerStep
}

// handle parks m in a free slab slot and schedules its handler's first
// event now; every event of the handler carries the slot index.
func (e *Engine) handle(m mesh.Message, service int64) {
	h := handled{m: m, service: service}
	slot := int32(len(e.msgs))
	if n := len(e.msgFree); n > 0 {
		slot = e.msgFree[n-1]
		e.msgFree = e.msgFree[:n-1]
		e.msgs[slot] = h
	} else {
		e.msgs = append(e.msgs, h)
	}
	e.eng.After(0, e, int64(slot))
}

// OnEvent implements sim.EventSink: it moves the handler of the request
// in slab slot arg one step on. A handler takes one of its node's AM
// controllers (queueing in FIFO order with the processors' accesses),
// holds it for the service time, releases it and runs a body that never
// blocks, all in event context. Inject data first waits InjectAckDelay
// and acknowledges; the hold that follows is its copy into memory.
func (e *Engine) OnEvent(_ *sim.Engine, arg int64) {
	h := &e.msgs[arg]
	switch h.step {
	case stepStart:
		if h.m.Kind == proto.MsgInjectData {
			h.step = stepAckSent
			e.eng.After(e.arch.InjectAckDelay, e, arg)
			return
		}
	case stepAckSent:
		e.handleInjectData(h.m.Dst, h.m)
	case stepServed:
		m := h.m
		e.msgs[arg] = handled{} // release future/txn refs for the GC
		e.msgFree = append(e.msgFree, int32(arg))
		e.ctl[m.Dst].Release(e.eng)
		e.serve(m)
		return
	}
	// Take a controller unless Release handed one over, then hold it.
	if h.step != stepGranted && !e.ctl[h.m.Dst].AcquireSink(e.eng, e, arg) {
		h.step = stepGranted
		return
	}
	h.step = stepServed
	e.eng.After(h.service, e, arg)
}

// serve runs the body of the handler of m at its destination node, once
// the controller hold is over.
func (e *Engine) serve(m mesh.Message) {
	switch m.Kind {
	case proto.MsgReadReq, proto.MsgWriteReq:
		e.homeRequest(m.Dst, m)
	case proto.MsgReadFwd:
		e.ownerRead(m.Dst, m)
	case proto.MsgWriteFwd:
		e.ownerWrite(m.Dst, m)
	case proto.MsgInvalidate:
		e.handleInvalidate(m.Dst, m)
	case proto.MsgInjectProbe:
		e.handleInjectProbe(m.Dst, m)
	case proto.MsgPreCommitUpgrade:
		e.handlePreCommitUpgrade(m.Dst, m)
	case proto.MsgInjectData:
		// The hold was the copy into memory; nothing follows it.
	default:
		panic(fmt.Sprintf("coherence: no handler for %v", m))
	}
}

// itemLock is a FIFO mutex serialising transactions on one item.
type itemLock struct {
	held bool
	q    []*sim.Process
}

// newLock takes an item lock from the free list, or allocates one.
func (e *Engine) newLock() *itemLock {
	if n := len(e.freeLocks); n > 0 {
		l := e.freeLocks[n-1]
		e.freeLocks = e.freeLocks[:n-1]
		return l
	}
	return &itemLock{}
}

// lockItem acquires the transaction lock for an item, blocking in FIFO
// order behind the current holder.
func (e *Engine) lockItem(p *sim.Process, item proto.ItemID) {
	l := e.locks[item]
	if l == nil {
		l = e.newLock()
		e.locks[item] = l
	}
	if !l.held {
		l.held = true
		return
	}
	l.q = append(l.q, p)
	p.Park()
}

// tryLockItem acquires the lock only if free.
func (e *Engine) tryLockItem(item proto.ItemID) bool {
	l := e.locks[item]
	if l == nil {
		l = e.newLock()
		l.held = true
		e.locks[item] = l
		return true
	}
	if l.held {
		return false
	}
	l.held = true
	return true
}

// unlockItem releases the lock, handing it to the longest waiter.
func (e *Engine) unlockItem(item proto.ItemID) {
	l := e.locks[item]
	if l == nil || !l.held {
		panic(fmt.Sprintf("coherence: unlock of free item %d", item))
	}
	if len(l.q) > 0 {
		next := l.q[0]
		copy(l.q, l.q[1:])
		l.q = l.q[:len(l.q)-1]
		e.eng.WakeNow(next)
		return
	}
	delete(e.locks, item)
	l.held = false
	e.freeLocks = append(e.freeLocks, l)
}

// LockedItems reports how many items currently have an active or queued
// transaction (test hook: must be zero at quiesce).
func (e *Engine) LockedItems() int { return len(e.locks) }

// ackState counts invalidation acknowledgements for one in-flight write
// transaction.
type ackState struct {
	needed   int // -1 until the data grant announces the count
	received int
	fut      sim.Future[int]
}

// registerAcks prepares ack collection for a write transaction on item.
func (e *Engine) registerAcks(item proto.ItemID) *sim.Future[int] {
	if _, dup := e.acks[item]; dup {
		panic(fmt.Sprintf("coherence: concurrent ack registration for item %d", item))
	}
	var st *ackState
	if n := len(e.freeAcks); n > 0 {
		st = e.freeAcks[n-1]
		e.freeAcks = e.freeAcks[:n-1]
	} else {
		st = &ackState{}
	}
	st.needed, st.received = -1, 0
	e.acks[item] = st
	return &st.fut
}

// expectAcks announces how many acknowledgements the transaction must
// collect; the future completes when they have all arrived.
func (e *Engine) expectAcks(item proto.ItemID, n int) {
	st := e.acks[item]
	if st == nil {
		panic(fmt.Sprintf("coherence: expectAcks without registration for item %d", item))
	}
	st.needed = n
	if st.received >= st.needed && !st.fut.Done() {
		st.fut.Complete(e.eng, st.received)
	}
}

// ackArrived records an incoming acknowledgement.
func (e *Engine) ackArrived(item proto.ItemID, n int) {
	st := e.acks[item]
	if st == nil {
		panic(fmt.Sprintf("coherence: stray ack for item %d", item))
	}
	st.received += n
	if st.needed >= 0 && st.received >= st.needed && !st.fut.Done() {
		st.fut.Complete(e.eng, st.received)
	}
}

// finishAcks tears down ack collection after the transaction has
// awaited its acks, recycling the state and its future.
func (e *Engine) finishAcks(item proto.ItemID) {
	st := e.acks[item]
	delete(e.acks, item)
	st.fut.Reset()
	e.freeAcks = append(e.freeAcks, st)
}

// request sends m with a pooled reply future as its Token and blocks p
// until the transaction's final reply is delivered, then returns the
// future to the pool. The requester owns the future; the token moves
// linearly through the forwards into the final reply's Reply field and
// the mesh completes it exactly once on delivery (DESIGN.md §10.3).
func (e *Engine) request(p *sim.Process, m mesh.Message) mesh.Message {
	fut := e.replies.Get()
	m.Token = fut
	e.net.Send(m)
	reply := fut.Await(p)
	e.replies.Put(fut)
	reply.Reply = nil // the future is back in the pool
	return reply
}

// useController charges a processor access d cycles of one of the
// node's AM controllers; message handlers take theirs in event context
// (see OnEvent).
func (e *Engine) useController(p *sim.Process, n proto.NodeID, d int64) {
	e.ctl[n].Use(p, d)
}

// anchorFrames returns the number of irreplaceable frames reserved per
// touched page: the configured count under the ECP (four in the paper),
// one under the standard protocol (the KSR1 allocates a single
// irreplaceable page per page).
func (e *Engine) anchorFrames() int {
	if e.protocol == Standard {
		return 1
	}
	return e.arch.AnchorFrames
}

// anchorBlockPages is how many first-touched pages' anchor lists one
// allocation provides.
const anchorBlockPages = 256

// newAnchorList returns the anchor list of a page first touched by n,
// carved from the current block. Its capacity is its own length, so
// RemapAnchors rewrites it in place and never spills into a neighbour.
func (e *Engine) newAnchorList(n proto.NodeID) []proto.NodeID {
	count := e.anchorFrames()
	if len(e.anchorSpare) < count {
		e.anchorSpare = make([]proto.NodeID, anchorBlockPages*count)
	}
	list := e.dir.Anchors(e.anchorSpare[:0:count], n, count)
	e.anchorSpare = e.anchorSpare[count:]
	return list
}

// readable reports whether a local copy in state st may satisfy a
// processor read, honouring the NoSharedCKReads ablation.
func (e *Engine) readable(st proto.State) bool {
	if !st.Readable() {
		return false
	}
	if e.opts.NoSharedCKReads && (st == proto.SharedCK1 || st == proto.SharedCK2) {
		return false
	}
	return true
}

// PendingAcks reports in-flight write-transaction ack collections (test
// and deadlock diagnostics).
func (e *Engine) PendingAcks() int { return len(e.acks) }

// PendingReplies reports reply futures handed out and not yet returned
// to the pool (test hook: must be zero at quiesce, like LockedItems).
func (e *Engine) PendingReplies() int { return e.replies.Outstanding() }
