// Package am models a node's Attraction Memory: the per-node memory of a
// COMA, organised as a large set-associative cache of the shared address
// space. Allocation happens at page granularity (16 KB pages, 16-way
// associative in the paper's configuration) while coherence state, data
// and recovery-pair bookkeeping are kept per item (128 bytes).
//
// Frames can be marked irreplaceable ("anchor" frames): the paper
// statically allocates four irreplaceable pages per data page so that
// injected copies and recovery replication always find room.
package am

import (
	"fmt"
	"sort"

	"coma/internal/config"
	"coma/internal/proto"
)

// Slot is the per-item metadata held in a frame.
type Slot struct {
	State proto.State
	// Value is the simulator's model of the item's 128 bytes: a 64-bit
	// stamp checked against the machine oracle.
	Value uint64
	// Partner is the node holding the other copy of a recovery pair;
	// meaningful only while State.Recovery() is true.
	Partner proto.NodeID
}

type frame struct {
	page          proto.PageID
	valid         bool
	irreplaceable bool
	// evicting marks a frame whose pinned items are being injected away
	// by an in-flight replacement; it must not accept new copies.
	evicting bool
	lastUse  int64
	slots    []Slot
	// modified counts slots in Exclusive or MasterShared state; frames
	// with modified > 0 form the paper's "modified-item tree", letting
	// the create phase find the next item to replicate in O(frames).
	modified int
}

// Stats counts attraction-memory events.
type Stats struct {
	// FramesAllocated is the cumulative number of frame allocations
	// (never decremented; Fig. 7 uses the peak concurrent value).
	FramesAllocated int64
	FramesDropped   int64
	PeakFrames      int
}

// AM is one node's attraction memory.
type AM struct {
	arch config.Arch
	node proto.NodeID
	sets [][]frame
	// index maps an allocated page to its frame for O(1) lookup.
	index map[proto.PageID]*frame

	allocated int
	stats     Stats

	// stateHook, when set, is called on every state change made through
	// Set/SetState (the protocol engine's choke points). Bulk scans via
	// ForEachAllocated deliberately bypass it: the commit/recovery scans
	// flip every slot at once and are observed as phase spans instead.
	stateHook func(item proto.ItemID, from, to proto.State)
}

// SetStateHook installs the state-transition hook (nil disables it).
func (a *AM) SetStateHook(fn func(item proto.ItemID, from, to proto.State)) {
	a.stateHook = fn
}

// New builds an empty attraction memory for the node.
func New(arch config.Arch, node proto.NodeID) *AM {
	a := &AM{
		arch:  arch,
		node:  node,
		sets:  make([][]frame, arch.AMSets()),
		index: make(map[proto.PageID]*frame),
	}
	frames := make([]frame, len(a.sets)*arch.AMWays)
	for i := range a.sets {
		a.sets[i] = frames[i*arch.AMWays : (i+1)*arch.AMWays : (i+1)*arch.AMWays]
	}
	return a
}

// Node returns the owning node.
func (a *AM) Node() proto.NodeID { return a.node }

// Stats returns a copy of the accumulated statistics.
func (a *AM) Stats() Stats { return a.stats }

// AllocatedFrames returns the number of currently allocated page frames.
func (a *AM) AllocatedFrames() int { return a.allocated }

func (a *AM) setIndex(page proto.PageID) int {
	return int(page) % len(a.sets)
}

func (a *AM) frameFor(item proto.ItemID) *frame {
	return a.index[a.arch.PageOf(item)]
}

func (a *AM) slotFor(item proto.ItemID) *Slot {
	f := a.frameFor(item)
	if f == nil {
		return nil
	}
	return &f.slots[a.arch.ItemIndexInPage(item)]
}

// HasFrame reports whether the page is allocated.
func (a *AM) HasFrame(page proto.PageID) bool { return a.index[page] != nil }

// Irreplaceable reports whether the page's frame is an anchor frame.
func (a *AM) Irreplaceable(page proto.PageID) bool {
	f := a.index[page]
	return f != nil && f.irreplaceable
}

// Evicting reports whether the page's frame is mid-replacement.
func (a *AM) Evicting(page proto.PageID) bool {
	f := a.index[page]
	return f != nil && f.evicting
}

// SetEvicting marks or unmarks a frame as mid-replacement. The frame
// must be allocated.
func (a *AM) SetEvicting(page proto.PageID, v bool) {
	f := a.index[page]
	if f == nil {
		panic(fmt.Sprintf("am: SetEvicting(%d) on node %v without a frame", page, a.node))
	}
	f.evicting = v
}

// Touch updates the frame's LRU stamp.
func (a *AM) Touch(page proto.PageID, now int64) {
	if f := a.index[page]; f != nil {
		f.lastUse = now
	}
}

// State returns the item's coherence state (Invalid when the page is not
// allocated).
func (a *AM) State(item proto.ItemID) proto.State {
	s := a.slotFor(item)
	if s == nil {
		return proto.Invalid
	}
	return s.State
}

// Slot returns a copy of the item's slot (zero Slot when unallocated).
func (a *AM) Slot(item proto.ItemID) Slot {
	s := a.slotFor(item)
	if s == nil {
		return Slot{State: proto.Invalid, Partner: proto.None}
	}
	return *s
}

// Set installs state, value and partner for an item. The page frame must
// be allocated. Modified-item bookkeeping is maintained.
func (a *AM) Set(item proto.ItemID, slot Slot) {
	f := a.frameFor(item)
	if f == nil {
		panic(fmt.Sprintf("am: Set(%d) on node %v without a frame for page %d",
			item, a.node, a.arch.PageOf(item)))
	}
	idx := a.arch.ItemIndexInPage(item)
	old := &f.slots[idx]
	if old.State.Modified() {
		f.modified--
	}
	if slot.State.Modified() {
		f.modified++
	}
	if a.stateHook != nil && old.State != slot.State {
		a.stateHook(item, old.State, slot.State)
	}
	*old = slot
}

// SetState changes only the coherence state, preserving value and partner.
func (a *AM) SetState(item proto.ItemID, st proto.State) {
	s := a.slotFor(item)
	if s == nil {
		panic(fmt.Sprintf("am: SetState(%d) on node %v without a frame", item, a.node))
	}
	f := a.frameFor(item)
	if s.State.Modified() {
		f.modified--
	}
	if st.Modified() {
		f.modified++
	}
	if a.stateHook != nil && s.State != st {
		a.stateHook(item, s.State, st)
	}
	s.State = st
}

// SetPartner records the recovery-pair partner for an item.
func (a *AM) SetPartner(item proto.ItemID, partner proto.NodeID) {
	s := a.slotFor(item)
	if s == nil {
		panic(fmt.Sprintf("am: SetPartner(%d) on node %v without a frame", item, a.node))
	}
	s.Partner = partner
}

// FreeWay reports whether the page's set has an unallocated way.
func (a *AM) FreeWay(page proto.PageID) bool {
	set := a.sets[a.setIndex(page)]
	for w := range set {
		if !set[w].valid {
			return true
		}
	}
	return false
}

// AllocFrame allocates a frame for the page in a free way. It panics if
// the page is already allocated or no way is free (callers must first
// evict via VictimPage/DropFrame).
func (a *AM) AllocFrame(page proto.PageID, irreplaceable bool, now int64) {
	if a.index[page] != nil {
		panic(fmt.Sprintf("am: page %d already allocated on node %v", page, a.node))
	}
	set := a.sets[a.setIndex(page)]
	for w := range set {
		f := &set[w]
		if f.valid {
			continue
		}
		f.valid = true
		f.page = page
		f.irreplaceable = irreplaceable
		f.lastUse = now
		f.modified = 0
		if f.slots == nil {
			// A frame gets its slots on first use: most frames of an AM
			// are never allocated in a run, and building a machine would
			// otherwise touch memory for all of them.
			f.slots = make([]Slot, a.arch.ItemsPerPage())
		}
		for i := range f.slots {
			f.slots[i] = Slot{State: proto.Invalid, Partner: proto.None}
		}
		a.index[page] = f
		a.allocated++
		a.stats.FramesAllocated++
		if a.allocated > a.stats.PeakFrames {
			a.stats.PeakFrames = a.allocated
		}
		return
	}
	panic(fmt.Sprintf("am: AllocFrame(%d) on node %v with no free way", page, a.node))
}

// MarkIrreplaceable pins an already-allocated frame (a page that becomes
// an anchor after the fact, e.g. during reconfiguration).
func (a *AM) MarkIrreplaceable(page proto.PageID) {
	f := a.index[page]
	if f == nil {
		panic(fmt.Sprintf("am: MarkIrreplaceable(%d) on node %v without a frame", page, a.node))
	}
	f.irreplaceable = true
}

// VictimPage picks the least-recently-used replaceable frame in the
// target page's set. ok is false when every way is irreplaceable.
func (a *AM) VictimPage(page proto.PageID) (victim proto.PageID, ok bool) {
	v := a.VictimPages(page)
	if len(v) == 0 {
		return proto.NoPage, false
	}
	return v[0], true
}

// VictimPages returns every replaceable (not irreplaceable, not already
// mid-eviction) frame in the target page's set, least recently used
// first, so callers can skip candidates busy with in-flight
// transactions.
func (a *AM) VictimPages(page proto.PageID) []proto.PageID {
	set := a.sets[a.setIndex(page)]
	cand := make([]*frame, 0, len(set))
	for w := range set {
		f := &set[w]
		if !f.valid || f.irreplaceable || f.evicting {
			continue
		}
		cand = append(cand, f)
	}
	sort.Slice(cand, func(i, j int) bool {
		if cand[i].lastUse != cand[j].lastUse {
			return cand[i].lastUse < cand[j].lastUse
		}
		return cand[i].page < cand[j].page
	})
	out := make([]proto.PageID, len(cand))
	for i, f := range cand {
		out[i] = f.page
	}
	return out
}

// PinnedItems returns the items of a frame whose state forbids silent
// replacement (masters and recovery copies): the caller must inject them
// before DropFrame.
func (a *AM) PinnedItems(page proto.PageID) []proto.ItemID {
	f := a.index[page]
	if f == nil {
		return nil
	}
	var out []proto.ItemID
	first := a.arch.FirstItem(page)
	for i := range f.slots {
		if !f.slots[i].State.Replaceable() {
			out = append(out, first+proto.ItemID(i))
		}
	}
	return out
}

// DropFrame deallocates the page's frame. Every item must be in a
// replaceable state (Invalid or Shared); it panics otherwise.
func (a *AM) DropFrame(page proto.PageID) {
	f := a.index[page]
	if f == nil {
		panic(fmt.Sprintf("am: DropFrame(%d) on node %v without a frame", page, a.node))
	}
	for i := range f.slots {
		if !f.slots[i].State.Replaceable() {
			panic(fmt.Sprintf("am: DropFrame(%d) on node %v would lose item %d in %v",
				page, a.node, int(a.arch.FirstItem(page))+i, f.slots[i].State))
		}
	}
	f.valid = false
	f.irreplaceable = false
	f.evicting = false
	delete(a.index, page)
	a.allocated--
	a.stats.FramesDropped++
}

// ModifiedItems appends to dst the items currently in a Modified state
// (Exclusive or MasterShared) — the work list of the checkpoint create
// phase. The modified-item counters make the scan proportional to the
// number of frames plus the number of modified items, mirroring the
// paper's tree of modified-line indicators.
func (a *AM) ModifiedItems(dst []proto.ItemID) []proto.ItemID {
	for si := range a.sets {
		for w := range a.sets[si] {
			f := &a.sets[si][w]
			if !f.valid || f.modified == 0 {
				continue
			}
			first := a.arch.FirstItem(f.page)
			for i := range f.slots {
				if f.slots[i].State.Modified() {
					dst = append(dst, first+proto.ItemID(i))
				}
			}
		}
	}
	return dst
}

// ForEachAllocated visits every slot of every allocated frame in
// deterministic order. fn may mutate state via the AM's setters but must
// not allocate or drop frames.
func (a *AM) ForEachAllocated(fn func(item proto.ItemID, slot *Slot)) {
	for si := range a.sets {
		for w := range a.sets[si] {
			f := &a.sets[si][w]
			if !f.valid {
				continue
			}
			first := a.arch.FirstItem(f.page)
			for i := range f.slots {
				before := f.slots[i].State.Modified()
				fn(first+proto.ItemID(i), &f.slots[i])
				after := f.slots[i].State.Modified()
				if before != after {
					if after {
						f.modified++
					} else {
						f.modified--
					}
				}
			}
		}
	}
}

// AllocatedPages returns the allocated page IDs in deterministic order.
func (a *AM) AllocatedPages() []proto.PageID {
	out := make([]proto.PageID, 0, a.allocated)
	for si := range a.sets {
		for w := range a.sets[si] {
			if a.sets[si][w].valid {
				out = append(out, a.sets[si][w].page)
			}
		}
	}
	return out
}

// StateCounts tallies slots by state across all allocated frames (used by
// the invariant checker and memory-overhead reporting).
func (a *AM) StateCounts() map[proto.State]int {
	counts := make(map[proto.State]int)
	a.ForEachAllocated(func(_ proto.ItemID, s *Slot) {
		counts[s.State]++
	})
	return counts
}

// Clear wipes the whole memory (a transient node failure loses AM
// contents; the node rejoins empty).
func (a *AM) Clear() {
	for si := range a.sets {
		for w := range a.sets[si] {
			f := &a.sets[si][w]
			if f.valid {
				a.stats.FramesDropped++
			}
			f.valid = false
			f.irreplaceable = false
			f.evicting = false
			f.modified = 0
			for i := range f.slots {
				f.slots[i] = Slot{State: proto.Invalid, Partner: proto.None}
			}
		}
	}
	a.index = make(map[proto.PageID]*frame)
	a.allocated = 0
}
