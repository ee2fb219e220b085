// Package mesh models the paper's interconnection network: a synchronous
// worm-hole routed 2-D mesh with 32-bit flits, a one-cycle fall-through
// time, and two independent subnetworks (one for requests, one for
// replies) to avoid protocol deadlock.
//
// A message's head advances one hop per HopLatency cycles when links are
// free; the tail follows flit-by-flit, so an uncontended message of f
// flits over h hops takes NISend + h*HopLatency + (f-1) + NIRecv cycles.
// Each directed link is occupied for f cycles per traversing message, and
// a head that finds a link busy waits for it (a virtual-cut-through
// approximation of worm-hole blocking: the worm compresses into the
// upstream buffer instead of stalling the whole path — the same
// uncontended latency, slightly optimistic under heavy contention).
package mesh

import (
	"fmt"

	"coma/internal/config"
	"coma/internal/obs"
	"coma/internal/proto"
	"coma/internal/sim"
)

// Subnet selects one of the two physical subnetworks.
type Subnet uint8

const (
	// RequestNet carries requests, invalidations and probes.
	RequestNet Subnet = iota
	// ReplyNet carries data, acknowledgements and grants.
	ReplyNet

	numSubnets
)

func (s Subnet) String() string {
	if s == RequestNet {
		return "request"
	}
	return "reply"
}

// SubnetOf maps a message kind onto the subnetwork it travels on.
func SubnetOf(kind proto.MsgKind) Subnet {
	switch kind {
	case proto.MsgDataReply, proto.MsgColdGrant, proto.MsgInvalidateAck,
		proto.MsgInjectAccept, proto.MsgInjectRefuse, proto.MsgInjectData,
		proto.MsgInjectAck, proto.MsgPreCommitUpgradeAck,
		proto.MsgCkptCreateDone, proto.MsgCkptCommitDone, proto.MsgRecoverDone:
		return ReplyNet
	case proto.MsgReadReq, proto.MsgWriteReq, proto.MsgReadFwd, proto.MsgWriteFwd,
		proto.MsgInvalidate, proto.MsgInjectProbe, proto.MsgHomeUpdate,
		proto.MsgPageAlloc, proto.MsgPartnerUpdate, proto.MsgPreCommitUpgrade,
		proto.MsgCkptPrepare, proto.MsgCkptCommit, proto.MsgRecover:
		return RequestNet
	default:
		panic("mesh: no subnet for message kind " + kind.String())
	}
}

// Message is one network transfer. Control messages are CtrlMsgFlits
// long; messages whose kind carries an item are data-sized.
type Message struct {
	Kind proto.MsgKind
	Src  proto.NodeID
	Dst  proto.NodeID
	Item proto.ItemID

	// State is the coherence state a copy is installed in or upgraded to
	// (injection, pre-commit upgrade) or the granting state (replies).
	State proto.State
	// Value is the item's data value (the simulator models contents as a
	// 64-bit version stamp for end-to-end correctness checking).
	Value uint64
	// Arg is a small kind-specific payload: a partner or new-owner node,
	// an injection cause, an invalidation-ack count, a checkpoint epoch.
	Arg int64
	// Fresh marks an injection that creates a brand-new secondary
	// recovery copy (create-phase replication or reconfiguration) rather
	// than moving an existing copy; the receiver pairs a fresh copy with
	// the sender and a moving copy with its recorded partner.
	Fresh bool
	// Requester is the node the final response must reach when a request
	// is forwarded (home-based localisation forwards to the owner, which
	// answers the requester directly).
	Requester proto.NodeID
	// Token is a future threaded through a multi-leg transaction; the
	// final responder moves it into Reply so the original requester wakes
	// when the response physically arrives.
	Token *sim.Future[Message]
	// Reply, when non-nil, is completed by the delivery of this message;
	// responders copy the requester's future into their reply message so
	// the blocked requester wakes when the reply physically arrives.
	Reply *sim.Future[Message]
	// Txn is the protocol transaction this message belongs to (zero when
	// tracing is off or the message is outside any traced transaction).
	// Handlers copy it onto every message they send on the transaction's
	// behalf so hop events chain across forwards and replies.
	Txn proto.TxnID

	// sentAt is stamped by Send when an observer is attached, so the
	// delivery-side hop event can report the message's network latency.
	sentAt int64
}

func (m Message) String() string {
	return fmt.Sprintf("%v %v->%v item=%d state=%v arg=%d", m.Kind, m.Src, m.Dst, m.Item, m.State, m.Arg)
}

// Handler consumes a delivered message on the destination node. It runs in
// event context and must not block; long work is spawned as a process.
type Handler func(Message)

// Stats aggregates network activity.
type Stats struct {
	Messages   [2]int64 // per subnet
	Flits      [2]int64
	FlitCycles [2]int64 // link occupancy integral
	Dropped    int64    // messages to/from dead nodes
}

// Network is the mesh instance for one simulation.
type Network struct {
	eng  *sim.Engine
	arch config.Arch
	w, h int

	handlers []Handler
	down     []bool

	// linkFree[subnet][link] is the cycle at which the directed link
	// becomes free. Links are indexed densely; see linkIndex.
	linkFree [2][]int64
	// niFree[subnet][node] serialises each node's injection port.
	niSendFree [2][]int64
	niRecvFree [2][]int64

	// inflight counts messages accepted by Send but not yet delivered
	// (per subnet, loopback included). Sampled by the observability
	// queue-depth ticker; maintaining two integers costs nothing when
	// nobody reads them.
	inflight [2]int64

	// pending parks accepted messages until their delivery event fires:
	// Send stores the message in a free slot and schedules a typed event
	// (sim.EventSink) whose arg is the slot index, so the per-delivery
	// closure allocation is gone. free lists reusable slots.
	pending []Message
	free    []int32

	// routeBuf is the reusable scratch for route's link path (Send uses
	// it before returning; deliveries never re-enter route).
	routeBuf []int

	// obs, when non-nil, receives one KTxnHop event per delivery of a
	// transaction-stamped message. Never affects timing or routing.
	obs obs.Observer

	stats Stats
}

// SetObserver attaches the observability sink (nil disables hop events).
func (n *Network) SetObserver(o obs.Observer) { n.obs = o }

// New builds the mesh for the architecture. Node i sits at
// (i mod w, i div w) on the smallest near-square mesh.
func New(eng *sim.Engine, arch config.Arch) *Network {
	w, h := arch.MeshDims()
	n := &Network{
		eng:      eng,
		arch:     arch,
		w:        w,
		h:        h,
		handlers: make([]Handler, arch.Nodes),
		down:     make([]bool, arch.Nodes),
	}
	links := n.numLinks()
	for s := 0; s < 2; s++ {
		n.linkFree[s] = make([]int64, links)
		n.niSendFree[s] = make([]int64, arch.Nodes)
		n.niRecvFree[s] = make([]int64, arch.Nodes)
	}
	return n
}

// Stats returns a copy of the accumulated network statistics.
func (n *Network) Stats() Stats { return n.stats }

// Inflight returns the number of messages currently in flight on the
// subnet (sent but not yet delivered, loopback included).
func (n *Network) Inflight(s Subnet) int64 { return n.inflight[s] }

// NIBacklog reports how many cycles the node's injection ports on
// subnet s remain busy past now (0 = idle). Read-only; used by the
// live-inspection layer at engine safe points.
func (n *Network) NIBacklog(s Subnet, node proto.NodeID, now int64) (send, recv int64) {
	send = max(0, n.niSendFree[s][node]-now)
	recv = max(0, n.niRecvFree[s][node]-now)
	return send, recv
}

// BusyLinks counts the directed links of subnet s still occupied at
// now. Read-only; used by the live-inspection layer.
func (n *Network) BusyLinks(s Subnet, now int64) int {
	busy := 0
	for _, free := range n.linkFree[s] {
		if free > now {
			busy++
		}
	}
	return busy
}

// SetHandler installs the delivery callback for a node.
func (n *Network) SetHandler(node proto.NodeID, h Handler) {
	n.handlers[node] = h
}

// SetDown marks a node's network interface dead (fail-silent): messages to
// or from it are dropped. SetDown(node, false) revives it (transient
// failure rejoin).
func (n *Network) SetDown(node proto.NodeID, down bool) {
	n.down[node] = down
}

// Coord returns the mesh coordinates of a node.
func (n *Network) Coord(node proto.NodeID) (x, y int) {
	return int(node) % n.w, int(node) / n.w
}

// Hops returns the XY-routing hop count between two nodes.
func (n *Network) Hops(a, b proto.NodeID) int {
	ax, ay := n.Coord(a)
	bx, by := n.Coord(b)
	return abs(ax-bx) + abs(ay-by)
}

// Send injects a message. Delivery (including all contention delays) ends
// with the destination handler being invoked; if the message carries a
// Reply future it is completed with the message at delivery time.
// Messages involving a dead node are silently dropped.
func (n *Network) Send(m Message) {
	if n.obs != nil {
		m.sentAt = n.eng.Now()
	}
	if m.Src == m.Dst {
		// Loopback: no network traversal; the controller hand-off is
		// free (its work is charged by the handler itself).
		n.inflight[SubnetOf(m.Kind)]++
		n.eng.After(0, n, n.park(m))
		return
	}
	if n.down[m.Src] {
		n.stats.Dropped++
		return
	}
	sub := SubnetOf(m.Kind)
	n.inflight[sub]++
	flits := int64(n.arch.MsgFlits(m.Kind))
	now := n.eng.Now()

	// Injection port serialisation at the source NI.
	start := max64(now, n.niSendFree[sub][m.Src])
	n.niSendFree[sub][m.Src] = start + flits
	head := start + n.arch.NISend

	// Head progression along the XY path with per-link occupancy.
	for _, link := range n.route(m.Src, m.Dst) {
		head = max64(head+n.arch.HopLatency, n.linkFree[sub][link])
		n.linkFree[sub][link] = head + flits
		n.stats.FlitCycles[sub] += flits
	}

	// Tail arrival and receive-side NI serialisation.
	tail := head + flits - 1
	deliverAt := max64(tail, n.niRecvFree[sub][m.Dst]) + n.arch.NIRecv
	n.niRecvFree[sub][m.Dst] = deliverAt

	n.stats.Messages[sub]++
	n.stats.Flits[sub] += flits

	n.eng.At(deliverAt, n, n.park(m))
}

// park stores an accepted message in the pending slab and returns its
// slot index, the typed-event payload carried to OnEvent.
func (n *Network) park(m Message) int64 {
	if len(n.free) > 0 {
		i := n.free[len(n.free)-1]
		n.free = n.free[:len(n.free)-1]
		n.pending[i] = m
		return int64(i)
	}
	n.pending = append(n.pending, m)
	return int64(len(n.pending) - 1)
}

// OnEvent implements sim.EventSink: a delivery event fired for the
// parked message in slot arg. The slot is released before the handler
// runs so reentrant Sends can reuse it.
func (n *Network) OnEvent(_ *sim.Engine, arg int64) {
	m := n.pending[arg]
	n.pending[arg] = Message{} // release future/txn refs for the GC
	n.free = append(n.free, int32(arg))
	n.deliver(m)
}

func (n *Network) deliver(m Message) {
	n.inflight[SubnetOf(m.Kind)]--
	if n.down[m.Dst] || n.down[m.Src] {
		n.stats.Dropped++
		return
	}
	if n.obs != nil && m.Txn != proto.NoTxn {
		n.obs.Emit(obs.Event{
			Time: n.eng.Now(),
			Kind: obs.KTxnHop,
			Node: m.Dst,
			Item: m.Item,
			Txn:  m.Txn,
			A:    int64(m.Kind),
			B:    n.eng.Now() - m.sentAt,
		})
	}
	if h := n.handlers[m.Dst]; h != nil {
		h(m)
	}
	if m.Reply != nil {
		m.Reply.Complete(n.eng, m)
	}
}

// UncontendedLatency returns the no-load transfer time for a message of
// the given kind over h hops (used by tests and the Table 2 calibration).
func (n *Network) UncontendedLatency(kind proto.MsgKind, hops int) int64 {
	flits := int64(n.arch.MsgFlits(kind))
	return n.arch.NISend + int64(hops)*n.arch.HopLatency + flits - 1 + n.arch.NIRecv
}

// route returns the directed link indices of the XY path from a to b.
// The returned slice aliases routeBuf and is valid until the next call.
func (n *Network) route(a, b proto.NodeID) []int {
	ax, ay := n.Coord(a)
	bx, by := n.Coord(b)
	path := n.routeBuf[:0]
	x, y := ax, ay
	for x != bx {
		nx := x + sign(bx-x)
		path = append(path, n.linkIndex(x, y, nx, y))
		x = nx
	}
	for y != by {
		ny := y + sign(by-y)
		path = append(path, n.linkIndex(x, y, x, ny))
		y = ny
	}
	n.routeBuf = path // keep any growth for reuse
	return path
}

// linkIndex densely numbers directed links: four possible outgoing
// directions per grid position.
func (n *Network) linkIndex(x, y, nx, ny int) int {
	dir := 0
	switch {
	case nx == x+1:
		dir = 0 // east
	case nx == x-1:
		dir = 1 // west
	case ny == y+1:
		dir = 2 // south
	case ny == y-1:
		dir = 3 // north
	default:
		panic("mesh: non-adjacent hop")
	}
	return (y*n.w+x)*4 + dir
}

func (n *Network) numLinks() int { return n.w * n.h * 4 }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func sign(v int) int {
	if v < 0 {
		return -1
	}
	return 1
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
