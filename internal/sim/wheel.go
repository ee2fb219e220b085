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
// every slot is a FIFO already sorted by seq.
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

	// slots[s] holds the pending events for absolute time t where
	// s == t & wheelMask; heads[s] indexes the next undispatched entry
	// (the backing array is reused once drained). occupied is a bitmap of
	// non-empty slots for O(words) next-event scans.
	slots    [wheelSize][]event
	heads    [wheelSize]int
	occupied [wheelSize / 64]uint64

	overflow eventHeap // events at time >= base+wheelSize

	// chunk is the unused tail of the block that gives each slot its
	// first backing array (slotCap events, carved on first use), so a
	// fresh engine does not grow a thousand slot slices from nil.
	chunk []event
}

// slotCap is the capacity carved for a slot's first backing array, and
// chunkSlots the number of slots served by one chunk allocation. Most
// slots never hold more than two events at once; carving four per slot
// raised sim-ecp's live heap by about 1%, past its run-to-run spread.
const (
	slotCap    = 2
	chunkSlots = 64
)

func (q *eventQueue) len() int { return q.count + q.overflow.len() }

// stats reports the event population by residence: wheel slots vs the
// far-future overflow heap. Read-only.
func (q *eventQueue) stats() (wheel, overflow int) { return q.count, q.overflow.len() }

// push files one event. The caller guarantees ev.time >= base (the
// engine never schedules into the past).
func (q *eventQueue) push(ev event) {
	if ev.time-q.base < wheelSize {
		q.pushSlot(ev)
		return
	}
	q.overflow.push(ev)
}

func (q *eventQueue) pushSlot(ev event) {
	s := int(ev.time & wheelMask)
	if q.slots[s] == nil {
		if len(q.chunk) == 0 {
			q.chunk = make([]event, slotCap*chunkSlots)
		}
		q.slots[s] = q.chunk[:0:slotCap]
		q.chunk = q.chunk[slotCap:]
	}
	q.slots[s] = append(q.slots[s], ev)
	q.occupied[s>>6] |= 1 << uint(s&63)
	q.count++
}

// peek returns the earliest pending event without removing it, or nil if
// the queue is empty. When only overflow events remain the heap top is
// returned as-is; pop performs the window advance.
func (q *eventQueue) peek() *event {
	if q.count > 0 {
		s := q.nextSlot()
		return &q.slots[s][q.heads[s]]
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
	h := q.heads[s]
	ev := q.slots[s][h]
	q.slots[s][h] = event{} // release fn/proc/sink for the GC
	h++
	if h == len(q.slots[s]) {
		q.slots[s] = q.slots[s][:0] // drained: reuse the backing array
		q.heads[s] = 0
		q.occupied[s>>6] &^= 1 << uint(s&63)
	} else {
		q.heads[s] = h
	}
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
