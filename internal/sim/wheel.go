package sim

import "math/bits"

// The event queue is a single-level hierarchical timing wheel (a
// calendar queue): wheelSize one-cycle slots cover the near-future
// window [base, base+wheelSize), and events beyond it spill into a small
// binary min-heap. Nearly all simulator traffic — mesh hops, controller
// service times, process wakes — lands within a few hundred cycles of
// now, so the common schedule/dispatch pair is O(1) slot append and
// bitmap scan instead of an O(log n) heap walk; only the rare far-future
// timers (checkpoint intervals, scripted failures) pay for the heap.
//
// Ordering contract (identical to the heap it replaced): events dispatch
// in (time, seq) order. Within the window each slot maps to exactly one
// absolute time, sequence numbers are globally monotonic, and overflow
// events migrate into the wheel in heap order whenever base advances —
// before any younger event can be scheduled into the freed slots — so
// every slot is a FIFO already sorted by seq (seq is only the heap's
// tiebreak). While the engine runs, base is now, so an event scheduled
// for now joins the tail of slot now, behind every same-time event.
const (
	wheelBits = 10
	wheelSize = 1 << wheelBits // cycles covered by the wheel window
	wheelMask = wheelSize - 1
)

// eventQueue is the engine's pending-event store: timing wheel plus
// overflow heap. The zero value is ready to use with base zero.
type eventQueue struct {
	base  int64 // window start; all wheel events have base <= time < base+wheelSize
	count int   // events resident in wheel slots

	// pool holds every wheel-resident event. Slot s, the pending events
	// for absolute time t where s == t & wheelMask, is a FIFO of pool
	// entries from head[s] to tail[s], linked through event.next;
	// occupied is a bitmap of non-empty slots for O(words) next-event
	// scans. The len(pool)-count entries not in a slot form a free list
	// from free, so the pool only grows to the peak wheel population.
	pool       []event
	free       int32
	head, tail [wheelSize]int32
	occupied   [wheelSize / 64]uint64

	overflow eventHeap // events at time >= base+wheelSize
}

func (q *eventQueue) len() int { return q.count + q.overflow.len() }

// push files one event. The caller guarantees ev.time >= base (the
// engine never schedules into the past).
func (q *eventQueue) push(ev event) {
	if ev.time-q.base < wheelSize {
		q.pushSlot(ev)
		return
	}
	q.overflow.push(ev)
}

// pushSlot appends ev to the tail of its slot, in a free pool entry if
// there is one.
func (q *eventQueue) pushSlot(ev event) {
	var i int32
	if q.count < len(q.pool) {
		i = q.free
		q.free = q.pool[i].next
		q.pool[i] = ev
	} else {
		i = int32(len(q.pool))
		q.pool = append(q.pool, ev)
	}
	s := int(ev.time & wheelMask)
	if q.occupied[s>>6]&(1<<uint(s&63)) != 0 {
		q.pool[q.tail[s]].next = i
	} else {
		q.head[s] = i
		q.occupied[s>>6] |= 1 << uint(s&63)
	}
	q.tail[s] = i
	q.count++
}

// peek returns the earliest pending event without removing it, or nil if
// the queue is empty. When only overflow events remain the heap top is
// returned as-is; pop performs the window advance.
func (q *eventQueue) peek() *event {
	if q.count > 0 {
		return &q.pool[q.head[q.nextSlot()]]
	}
	if q.overflow.len() > 0 {
		return q.overflow.peek()
	}
	return nil
}

// pop removes and returns the earliest pending event. The caller must
// know the queue is non-empty.
func (q *eventQueue) pop() event {
	if q.count == 0 {
		// Nothing left inside the window: jump base to the overflow
		// front, which migrates every event in the new window into slots.
		q.advanceTo(q.overflow.peek().time)
	}
	s := q.nextSlot()
	i := q.head[s]
	ev := q.pool[i]
	if i == q.tail[s] {
		q.occupied[s>>6] &^= 1 << uint(s&63)
	} else {
		q.head[s] = ev.next
	}
	q.pool[i] = event{next: q.free} // release the sink for the GC
	q.free = i
	q.count--
	// Track dispatch: sliding the window over the popped time pulls any
	// overflow events that just came into range.
	q.advanceTo(ev.time)
	return ev
}

// advanceTo slides the window start forward to t and migrates overflow
// events that now fall inside [t, t+wheelSize). All wheel slots between
// the old and new base are empty (t is never beyond the earliest pending
// event), so slot-to-time mapping stays unique.
func (q *eventQueue) advanceTo(t int64) {
	if t <= q.base {
		return
	}
	q.base = t
	end := t + wheelSize
	for q.overflow.len() > 0 && q.overflow.peek().time < end {
		q.pushSlot(q.overflow.pop())
	}
}

// nextSlot returns the slot index of the earliest wheel event by
// scanning the occupancy bitmap circularly from the base slot. The
// caller guarantees count > 0; within the window, circular distance from
// base equals time order.
func (q *eventQueue) nextSlot() int {
	start := int(q.base & wheelMask)
	w := start >> 6
	// Partial first word: bits at and above the base slot.
	if word := q.occupied[w] &^ (1<<uint(start&63) - 1); word != 0 {
		return w<<6 + bits.TrailingZeros64(word)
	}
	for i := 1; i <= len(q.occupied); i++ {
		w2 := (w + i) & (len(q.occupied) - 1)
		if word := q.occupied[w2]; word != 0 {
			s := w2<<6 + bits.TrailingZeros64(word)
			if w2 == w {
				// Wrapped all the way around: only bits below base remain.
				s = w<<6 + bits.TrailingZeros64(word&(1<<uint(start&63)-1))
			}
			return s
		}
	}
	panic("sim: nextSlot on empty wheel")
}
