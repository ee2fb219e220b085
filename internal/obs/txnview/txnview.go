// Package txnview reconstructs protocol transactions from an
// observability event stream (obs JSONL logs written by comasim
// -trace-out) and analyses them offline: critical-path latency
// decomposition, protocol-coverage diffing against the extended
// coherence protocol's edge set (proto.ECPEdges; a coverage Edge is a
// proto.Edge with its count and descriptions), and an invariant checker that
// replays the trace and verifies the recovery guarantees the paper
// argues for.
//
// The package is deliberately pure: it consumes []obs.Event and
// produces reports, with no simulator or wall-clock dependencies, so
// the same trace always yields the same analysis (the comalint
// determinism analyzer enforces this).
package txnview

import (
	"fmt"
	"sort"

	"coma/internal/obs"
	"coma/internal/proto"
)

// Hop is one mesh delivery belonging to a transaction.
type Hop struct {
	Time    int64        // delivery time (cycles)
	Node    proto.NodeID // destination
	Msg     proto.MsgKind
	Latency int64 // network latency (delivery minus send)
}

// Txn is one reconstructed protocol transaction.
type Txn struct {
	ID   proto.TxnID
	Par  proto.TxnID // parent transaction, or NoTxn
	Op   int64       // obs.Txn* operation
	Node proto.NodeID
	Item proto.ItemID

	Begin     int64 // KTxnBegin time
	End       int64 // KTxnEnd time (Begin if incomplete)
	QueueWait int64 // cycles queued before Begin (item-lock or bus wait)
	EndA      int64 // KTxnEnd A: fill source / accepting node / round mode
	Total     int64 // KTxnEnd B: total latency

	Hops     []Hop
	Complete bool // a KTxnEnd was seen
}

// Set is every transaction of one trace, in begin order.
type Set struct {
	Txns []*Txn
	ByID map[proto.TxnID]*Txn
}

// Assemble groups the txn-begin/txn-hop/txn-end events of a trace into
// transactions. Hops arriving after the end event are kept (protocol
// messages without a reply future, e.g. home updates, deliver after the
// initiator moved on); hops or ends for a transaction that never began
// are errors — the trace was filtered or truncated at the front.
func Assemble(events []obs.Event) (*Set, error) {
	s := &Set{ByID: make(map[proto.TxnID]*Txn)}
	for i, ev := range events {
		switch ev.Kind {
		case obs.KTxnBegin:
			if prev := s.ByID[ev.Txn]; prev != nil {
				return nil, fmt.Errorf("txnview: event %d: duplicate begin for %v (first began at cycle %d)",
					i, ev.Txn, prev.Begin)
			}
			t := &Txn{
				ID: ev.Txn, Par: ev.Par, Op: ev.A,
				Node: ev.Node, Item: ev.Item,
				Begin: ev.Time, End: ev.Time, QueueWait: ev.B,
			}
			s.ByID[ev.Txn] = t
			s.Txns = append(s.Txns, t)
		case obs.KTxnHop:
			t := s.ByID[ev.Txn]
			if t == nil {
				return nil, fmt.Errorf("txnview: event %d: hop for unknown transaction %v (%v at cycle %d)",
					i, ev.Txn, proto.MsgKind(ev.A), ev.Time)
			}
			t.Hops = append(t.Hops, Hop{
				Time: ev.Time, Node: ev.Node,
				Msg: proto.MsgKind(ev.A), Latency: ev.B,
			})
		case obs.KTxnEnd:
			t := s.ByID[ev.Txn]
			if t == nil {
				return nil, fmt.Errorf("txnview: event %d: end for unknown transaction %v at cycle %d",
					i, ev.Txn, ev.Time)
			}
			if t.Complete {
				return nil, fmt.Errorf("txnview: event %d: duplicate end for %v", i, ev.Txn)
			}
			t.Complete = true
			t.End = ev.Time
			t.EndA = ev.A
			t.Total = ev.B
		}
	}
	return s, nil
}

// Incomplete returns the transactions that never ended (in flight when
// the trace stopped), in begin order.
func (s *Set) Incomplete() []*Txn {
	var out []*Txn
	for _, t := range s.Txns {
		if !t.Complete {
			out = append(out, t)
		}
	}
	return out
}

// TopK returns the k slowest complete transactions, slowest first (ties
// broken by begin time, then ID, for determinism).
func (s *Set) TopK(k int) []*Txn {
	var done []*Txn
	for _, t := range s.Txns {
		if t.Complete {
			done = append(done, t)
		}
	}
	sort.SliceStable(done, func(i, j int) bool {
		if done[i].Total != done[j].Total {
			return done[i].Total > done[j].Total
		}
		if done[i].Begin != done[j].Begin {
			return done[i].Begin < done[j].Begin
		}
		return done[i].ID < done[j].ID
	})
	if k < len(done) {
		done = done[:k]
	}
	return done
}
