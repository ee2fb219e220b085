package txnview

import (
	"fmt"
	"io"

	"coma/internal/obs"
)

// Breakdown splits a complete transaction's latency into the four
// critical-path components:
//
//	queue    cycles spent waiting for the item lock or bus before the
//	         transaction got to work (KTxnBegin.B)
//	network  cycles messages spent in the mesh (sum of in-span hop
//	         latencies)
//	service  cycles between a message arriving somewhere and the next
//	         one being sent — directory lookups, owner memory transfers
//	         and controller queueing
//	fill     cycles after the last in-span delivery — the local AM
//	         install and final book-keeping
//
// Hops delivered after the end event (fire-and-forget home updates and
// the like) are off the critical path and excluded. Fan-out legs
// (parallel invalidations) can overlap, so a negative inter-hop gap is
// clamped to zero; the components then sum to slightly more than the
// wall latency, never less.
func (t *Txn) Breakdown() (queue, network, service, fill int64) {
	queue = t.QueueWait
	last := t.Begin
	for _, h := range t.Hops {
		if h.Time > t.End {
			continue // delivered after the transaction finished
		}
		network += h.Latency
		if sent := h.Time - h.Latency; sent > last {
			service += sent - last
		}
		if h.Time > last {
			last = h.Time
		}
	}
	fill = t.End - last
	return queue, network, service, fill
}

// PathBreakdown aggregates the component cycles of many transactions.
type PathBreakdown struct {
	Count                         int64
	Total                         int64 // summed total latencies
	Queue, Network, Service, Fill int64 // summed component cycles
}

// CritPathReport is the output of CritPath.
type CritPathReport struct {
	PerOp      [obs.NumTxnOps]PathBreakdown
	Latency    *obs.Hist // total latency of complete read/write misses
	Slowest    []*Txn    // top-K slowest complete transactions
	Incomplete int       // transactions still in flight at trace end
}

// Bounds for the miss-latency histogram: geometric-ish, matching the
// live exporter's latency buckets.
var critpathBounds = []int64{20, 50, 100, 150, 250, 500, 1_000, 2_500, 5_000, 10_000}

// CritPath assembles the trace's transactions and decomposes their
// latency. topK bounds the slowest-transactions list.
func CritPath(events []obs.Event, topK int) (*CritPathReport, error) {
	set, err := Assemble(events)
	if err != nil {
		return nil, err
	}
	r := &CritPathReport{
		Latency:    obs.NewHist(critpathBounds...),
		Incomplete: len(set.Incomplete()),
	}
	for _, t := range set.Txns {
		if !t.Complete {
			continue
		}
		q, n, s, f := t.Breakdown()
		if t.Op >= 0 && t.Op < int64(obs.NumTxnOps) {
			b := &r.PerOp[t.Op]
			b.Count++
			b.Total += t.Total
			b.Queue += q
			b.Network += n
			b.Service += s
			b.Fill += f
		}
		if t.Op == obs.TxnRead || t.Op == obs.TxnWrite {
			r.Latency.Observe(t.Total)
		}
	}
	r.Slowest = set.TopK(topK)
	return r, nil
}

// Write renders the report.
func (r *CritPathReport) Write(w io.Writer) error {
	pct := func(part, total int64) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(part) / float64(total)
	}
	fmt.Fprintf(w, "  %-15s %9s %11s %7s %7s %8s %6s\n",
		"op", "count", "avg-cycles", "queue%", "net%", "service%", "fill%")
	for op := int64(0); op < int64(obs.NumTxnOps); op++ {
		b := r.PerOp[op]
		if b.Count == 0 {
			continue
		}
		sum := b.Queue + b.Network + b.Service + b.Fill
		fmt.Fprintf(w, "  %-15s %9d %11.1f %6.1f%% %6.1f%% %7.1f%% %5.1f%%\n",
			obs.TxnOpName(op), b.Count, float64(b.Total)/float64(b.Count),
			pct(b.Queue, sum), pct(b.Network, sum), pct(b.Service, sum), pct(b.Fill, sum))
	}
	if r.Incomplete > 0 {
		fmt.Fprintf(w, "  in flight at trace end: %d\n", r.Incomplete)
	}

	if r.Latency.N > 0 {
		fmt.Fprintf(w, "  miss latency (cycles): n=%d mean=%.1f min=%d max=%d\n",
			r.Latency.N, r.Latency.Mean(), r.Latency.Min, r.Latency.Max)
		for i, c := range r.Latency.Counts {
			if c == 0 {
				continue
			}
			if i < len(r.Latency.Bounds) {
				fmt.Fprintf(w, "    <=%-7d %d\n", r.Latency.Bounds[i], c)
			} else {
				fmt.Fprintf(w, "    >%-8d %d\n", r.Latency.Bounds[len(r.Latency.Bounds)-1], c)
			}
		}
	}

	if len(r.Slowest) > 0 {
		fmt.Fprintf(w, "  slowest transactions:\n")
		for _, t := range r.Slowest {
			q, n, s, f := t.Breakdown()
			fmt.Fprintf(w, "    %-12v %-14s item=%-6d begin=%-10d total=%-7d queue=%d net=%d service=%d fill=%d hops=%d\n",
				t.ID, obs.TxnOpName(t.Op), t.Item, t.Begin, t.Total, q, n, s, f, len(t.Hops))
		}
	}
	return nil
}
