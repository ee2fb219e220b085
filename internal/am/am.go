// Package am models a node's Attraction Memory: the per-node memory of a
// COMA, organised as a large set-associative cache of the shared address
// space. Allocation happens at page granularity (16 KB pages, 16-way
// associative in the paper's configuration) while coherence state, data
// and recovery-pair bookkeeping are kept per item (128 bytes).
//
// Frames can be marked irreplaceable ("anchor" frames): the paper
// statically allocates four irreplaceable pages per data page so that
// injected copies and recovery replication always find room.
//
// The package also holds two rules the mesh and the bus machines share:
// the cost of one AM's commit scan (CommitScanCost) and the audit of the
// recovery-pair rule across a machine's AMs (CheckPairs).
package am

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"coma/internal/config"
	"coma/internal/proto"
)

// Slot is the per-item metadata held in a frame. Its fields are ordered
// widest first so a slot packs into 16 bytes, its table key included.
type Slot struct {
	// Value is the simulator's model of the item's 128 bytes: a 64-bit
	// stamp checked against the machine oracle.
	Value uint64
	// Partner is the node holding the other copy of a recovery pair;
	// meaningful only while State.Recovery() is true.
	Partner proto.NodeID
	State   proto.State
	// key is the item plus one while the slot is a record of the AM's
	// slot table, and 0 in a free record. A slot handed out by value
	// has key 0, so it compares equal to a literal of the same fields.
	key proto.ItemID
}

// cleanSlot is the slot of an item that holds no copy.
var cleanSlot = Slot{State: proto.Invalid, Partner: proto.None}

// The slot table starts at firstTable records on an AM's first write
// and doubles whenever it would pass maxLoadNum/maxLoadDen full.
const (
	firstTable = 1024
	maxLoadNum = 3
	maxLoadDen = 4
)

// A frame is one way of a set. Its page is the way's entry in AM.tags.
type frame struct {
	lastUse int64
	// modified counts slots in Exclusive or MasterShared state; frames
	// with modified > 0 form the paper's "modified-item tree", letting
	// the create phase find the next item to replicate in O(frames).
	modified      int32
	irreplaceable bool
	// evicting marks a frame whose pinned items are being injected away
	// by an in-flight replacement; it must not accept new copies.
	evicting bool
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
	node proto.NodeID
	// Geometry, computed once from the architecture.
	itemsPerPage int
	numSets      int
	ways         int
	// scanFrame is the cycles a commit or recovery scan spends on one
	// allocated frame; controllers is how many AM controllers share it.
	scanFrame, controllers int64
	// tags holds the page of every way, set by set (way w of set s is
	// tags[s*ways+w]), or NoPage when the way is free. A lookup scans
	// one set's contiguous tags, as the hardware's tag match does.
	tags   []proto.PageID
	frames []frame // parallel to tags
	// written holds one bit per item of every way, words words a way:
	// the items written since the way's page was allocated. Exactly
	// those items have a record in table.
	written []uint64
	words   int
	// table is an open-addressed, linearly probed table of the written
	// items' slots, keyed by item: nil until the AM's first write, then
	// a power of two long and at most maxLoadNum/maxLoadDen full. used
	// counts its records, and shift turns a hash into a home index.
	table []Slot
	used  int
	shift uint

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
	per := arch.ItemsPerPage()
	a := &AM{
		node:         node,
		itemsPerPage: per,
		numSets:      arch.AMSets(),
		ways:         arch.AMWays,
		scanFrame:    arch.CommitPageTest + int64(per)*arch.CommitItemTest,
		controllers:  int64(arch.AMControllers),
		words:        (per + 63) / 64,
	}
	a.tags = make([]proto.PageID, a.numSets*a.ways)
	for i := range a.tags {
		a.tags[i] = proto.NoPage
	}
	a.frames = make([]frame, len(a.tags))
	a.written = make([]uint64, len(a.tags)*a.words)
	return a
}

// Node returns the owning node.
func (a *AM) Node() proto.NodeID { return a.node }

// Stats returns a copy of the accumulated statistics.
func (a *AM) Stats() Stats { return a.stats }

// AllocatedFrames returns the number of currently allocated page frames.
func (a *AM) AllocatedFrames() int { return a.allocated }

// CommitScanCost returns the cycles one commit-phase scan of this AM
// takes (a recovery scan has the same structure): a page test for each
// allocated frame plus an item test for each item in it, divided across
// the node's independent AM controllers (§4.2.2).
func (a *AM) CommitScanCost() int64 {
	return int64(a.allocated) * a.scanFrame / a.controllers
}

// setTags returns the first way index of the page's set and the set's
// tags.
func (a *AM) setTags(page proto.PageID) (int, []proto.PageID) {
	base := int(page) % a.numSets * a.ways
	return base, a.tags[base : base+a.ways]
}

// way returns the index into tags and frames of the page's way, or -1
// when the page is not allocated. NoPage, like any negative page, is
// never allocated (and has no set).
func (a *AM) way(page proto.PageID) int {
	if page < 0 {
		return -1
	}
	base, tags := a.setTags(page)
	for w, t := range tags {
		if t == page {
			return base + w
		}
	}
	return -1
}

// frameOf returns the page's frame, or nil when it is not allocated.
func (a *AM) frameOf(page proto.PageID) *frame {
	if w := a.way(page); w >= 0 {
		return &a.frames[w]
	}
	return nil
}

// bitsOf returns the written-bitmap of way w.
func (a *AM) bitsOf(w int) []uint64 {
	return a.written[w*a.words : (w+1)*a.words]
}

// home returns the table index where the probe for key starts
// (Fibonacci hashing: consecutive items land far apart).
func (a *AM) home(key proto.ItemID) int {
	return int(uint32(key) * 0x9E3779B9 >> a.shift)
}

// find returns the table index of the item's record, or -1 when the
// item has none (it was never written, or its page is not allocated).
func (a *AM) find(item proto.ItemID) int {
	if a.table == nil {
		return -1
	}
	key, mask := item+1, len(a.table)-1
	for i := a.home(key); ; i = (i + 1) & mask {
		switch a.table[i].key {
		case key:
			return i
		case 0:
			return -1
		}
	}
}

// slotFor returns the record of an item of way w's page for a write,
// taking a free record when the item was not written since the page was
// allocated. fresh reports a taken record: its contents are stale, and
// the caller (one of the audited setters) wipes it before writing.
func (a *AM) slotFor(w int, item proto.ItemID) (s *Slot, fresh bool) {
	i := int(item) % a.itemsPerPage
	written := a.bitsOf(w)
	if written[i/64]&(1<<(i%64)) != 0 {
		return &a.table[a.find(item)], false
	}
	written[i/64] |= 1 << (i % 64)
	if (a.used+1)*maxLoadDen > len(a.table)*maxLoadNum {
		a.grow()
	}
	a.used++
	j := a.vacant(item + 1)
	a.table[j].key = item + 1
	return &a.table[j], true
}

// vacant returns the first free record on key's probe sequence; the
// table is never full.
func (a *AM) vacant(key proto.ItemID) int {
	j, mask := a.home(key), len(a.table)-1
	for a.table[j].key != 0 {
		j = (j + 1) & mask
	}
	return j
}

// grow doubles the slot table (or makes the first one) and moves every
// record to its place in the new table, in one allocation.
func (a *AM) grow() {
	old := a.table
	n := max(2*len(old), firstTable)
	a.table = make([]Slot, n)
	a.shift = uint(32 - bits.TrailingZeros(uint(n)))
	for i := range old {
		if old[i].key != 0 {
			a.table[a.vacant(old[i].key)] = old[i]
		}
	}
}

// remove frees the item's record. Linear probing cannot leave a hole in
// a probe sequence, so each later record of the run that may fill the
// hole moves back into it (backward-shift deletion).
func (a *AM) remove(item proto.ItemID) {
	i, mask := a.find(item), len(a.table)-1
	for j := (i + 1) & mask; a.table[j].key != 0; j = (j + 1) & mask {
		if (j-a.home(a.table[j].key))&mask >= (j-i)&mask {
			a.table[i] = a.table[j]
			i = j
		}
	}
	a.table[i].key = 0
	a.used--
}

// forWritten calls fn with every item of way w's page written since the
// page was allocated, in item order.
func (a *AM) forWritten(w int, fn func(item proto.ItemID)) {
	first := proto.ItemID(int(a.tags[w]) * a.itemsPerPage)
	for k, word := range a.bitsOf(w) {
		for word != 0 {
			fn(first + proto.ItemID(k*64+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
}

// HasFrame reports whether the page is allocated.
func (a *AM) HasFrame(page proto.PageID) bool { return a.way(page) >= 0 }

// Irreplaceable reports whether the page's frame is an anchor frame.
func (a *AM) Irreplaceable(page proto.PageID) bool {
	f := a.frameOf(page)
	return f != nil && f.irreplaceable
}

// Evicting reports whether the page's frame is mid-replacement.
func (a *AM) Evicting(page proto.PageID) bool {
	f := a.frameOf(page)
	return f != nil && f.evicting
}

// SetEvicting marks or unmarks a frame as mid-replacement. The frame
// must be allocated.
func (a *AM) SetEvicting(page proto.PageID, v bool) {
	f := a.frameOf(page)
	if f == nil {
		panic(fmt.Sprintf("am: SetEvicting(%d) on node %v without a frame", page, a.node))
	}
	f.evicting = v
}

// Touch updates the frame's LRU stamp.
func (a *AM) Touch(page proto.PageID, now int64) {
	if f := a.frameOf(page); f != nil {
		f.lastUse = now
	}
}

// State returns the item's coherence state (Invalid when the page is not
// allocated or the item was never written).
func (a *AM) State(item proto.ItemID) proto.State {
	if i := a.find(item); i >= 0 {
		return a.table[i].State
	}
	return proto.Invalid
}

// Slot returns a copy of the item's slot (the clean slot, Invalid with
// no partner, when the page is unallocated or the item never written).
func (a *AM) Slot(item proto.ItemID) Slot {
	i := a.find(item)
	if i < 0 {
		return cleanSlot
	}
	s := a.table[i]
	s.key = 0
	return s
}

// writable returns the way of the item's page for one of the setters,
// and panics naming the setter when the page is not allocated.
func (a *AM) writable(op string, item proto.ItemID) int {
	w := a.way(proto.PageID(int(item) / a.itemsPerPage))
	if w < 0 {
		panic(fmt.Sprintf("am: %s(%d) on node %v without a frame for page %d",
			op, item, a.node, int(item)/a.itemsPerPage))
	}
	return w
}

// Set installs state, value and partner for an item. The page frame must
// be allocated. Modified-item bookkeeping is maintained.
func (a *AM) Set(item proto.ItemID, slot Slot) {
	w := a.writable("Set", item)
	old, fresh := a.slotFor(w, item)
	if fresh {
		*old = Slot{State: proto.Invalid, Partner: proto.None, key: item + 1}
	}
	if old.State.Modified() {
		a.frames[w].modified--
	}
	if slot.State.Modified() {
		a.frames[w].modified++
	}
	if a.stateHook != nil && old.State != slot.State {
		a.stateHook(item, old.State, slot.State)
	}
	slot.key = item + 1
	*old = slot
}

// SetState changes only the coherence state, preserving value and partner.
func (a *AM) SetState(item proto.ItemID, st proto.State) {
	w := a.writable("SetState", item)
	s, fresh := a.slotFor(w, item)
	if fresh {
		*s = Slot{State: proto.Invalid, Partner: proto.None, key: item + 1}
	}
	if s.State.Modified() {
		a.frames[w].modified--
	}
	if st.Modified() {
		a.frames[w].modified++
	}
	if a.stateHook != nil && s.State != st {
		a.stateHook(item, s.State, st)
	}
	s.State = st
}

// SetPartner records the recovery-pair partner for an item.
func (a *AM) SetPartner(item proto.ItemID, partner proto.NodeID) {
	s, fresh := a.slotFor(a.writable("SetPartner", item), item)
	if fresh {
		*s = Slot{State: proto.Invalid, key: item + 1}
	}
	s.Partner = partner
}

// FreeWay reports whether the page's set has an unallocated way.
func (a *AM) FreeWay(page proto.PageID) bool {
	_, tags := a.setTags(page)
	for _, t := range tags {
		if t == proto.NoPage {
			return true
		}
	}
	return false
}

// AllocFrame allocates a frame for the page in a free way. It panics if
// the page is already allocated or no way is free (callers must first
// evict via VictimPage/DropFrame). The way's written-bitmap is already
// empty: DropFrame and Clear empty it.
func (a *AM) AllocFrame(page proto.PageID, irreplaceable bool, now int64) {
	if a.HasFrame(page) {
		panic(fmt.Sprintf("am: page %d already allocated on node %v", page, a.node))
	}
	base, tags := a.setTags(page)
	for w, t := range tags {
		if t != proto.NoPage {
			continue
		}
		tags[w] = page
		f := &a.frames[base+w]
		f.irreplaceable = irreplaceable
		f.lastUse = now
		f.modified = 0
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
	f := a.frameOf(page)
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
	base, tags := a.setTags(page)
	// Way indices of the candidates; on the stack for the paper's 16
	// ways.
	var stack [16]int
	cand := stack[:0]
	for w, t := range tags {
		if f := &a.frames[base+w]; t != proto.NoPage && !f.irreplaceable && !f.evicting {
			cand = append(cand, base+w)
		}
	}
	slices.SortFunc(cand, func(i, j int) int {
		return cmp.Or(cmp.Compare(a.frames[i].lastUse, a.frames[j].lastUse), cmp.Compare(a.tags[i], a.tags[j]))
	})
	out := make([]proto.PageID, len(cand))
	for k, w := range cand {
		out[k] = a.tags[w]
	}
	return out
}

// PinnedItems returns the items of a frame whose state forbids silent
// replacement (masters and recovery copies): the caller must inject them
// before DropFrame.
func (a *AM) PinnedItems(page proto.PageID) []proto.ItemID {
	w := a.way(page)
	if w < 0 {
		return nil
	}
	var out []proto.ItemID
	a.forWritten(w, func(item proto.ItemID) {
		if !a.State(item).Replaceable() {
			out = append(out, item)
		}
	})
	return out
}

// DropFrame deallocates the page's frame. Every item must be in a
// replaceable state (Invalid or Shared); it panics otherwise.
func (a *AM) DropFrame(page proto.PageID) {
	w := a.way(page)
	if w < 0 {
		panic(fmt.Sprintf("am: DropFrame(%d) on node %v without a frame", page, a.node))
	}
	if pinned := a.PinnedItems(page); len(pinned) > 0 {
		panic(fmt.Sprintf("am: DropFrame(%d) on node %v would lose item %d in %v",
			page, a.node, pinned[0], a.State(pinned[0])))
	}
	a.forWritten(w, a.remove)
	clear(a.bitsOf(w))
	a.tags[w] = proto.NoPage
	f := &a.frames[w]
	f.irreplaceable = false
	f.evicting = false
	a.allocated--
	a.stats.FramesDropped++
}

// ModifiedItems appends to dst the items currently in a Modified state
// (Exclusive or MasterShared) — the work list of the checkpoint create
// phase. The modified-item counters make the scan proportional to the
// number of frames plus the number of modified items, mirroring the
// paper's tree of modified-line indicators.
func (a *AM) ModifiedItems(dst []proto.ItemID) []proto.ItemID {
	for w, page := range a.tags {
		if page == proto.NoPage || a.frames[w].modified == 0 {
			continue
		}
		a.forWritten(w, func(item proto.ItemID) {
			if a.State(item).Modified() {
				dst = append(dst, item)
			}
		})
	}
	return dst
}

// ForEachAllocated visits the slot of every item written since its
// frame was allocated, frame by frame in tag order and item by item in
// each frame; every other item of an allocated frame holds the clean
// slot. fn may change the slot it is handed, but must not call the AM's
// setters, nor allocate or drop frames.
func (a *AM) ForEachAllocated(fn func(item proto.ItemID, slot *Slot)) {
	for w, page := range a.tags {
		if page == proto.NoPage {
			continue
		}
		f := &a.frames[w]
		a.forWritten(w, func(item proto.ItemID) {
			s := &a.table[a.find(item)]
			before := s.State.Modified()
			fn(item, s)
			// fn may have replaced the whole slot, key and all.
			s.key = item + 1
			after := s.State.Modified()
			if before != after {
				if after {
					f.modified++
				} else {
					f.modified--
				}
			}
		})
	}
}

// AllocatedPages returns the allocated page IDs in deterministic order.
func (a *AM) AllocatedPages() []proto.PageID {
	out := make([]proto.PageID, 0, a.allocated)
	for _, page := range a.tags {
		if page != proto.NoPage {
			out = append(out, page)
		}
	}
	return out
}

// StateCounts tallies slots by state across all allocated frames (used by
// the invariant checker and memory-overhead reporting). Items never
// written since their frame's allocation count as Invalid.
func (a *AM) StateCounts() map[proto.State]int {
	counts := make(map[proto.State]int)
	visited := 0
	a.ForEachAllocated(func(_ proto.ItemID, s *Slot) {
		counts[s.State]++
		visited++
	})
	if clean := a.allocated*a.itemsPerPage - visited; clean > 0 {
		counts[proto.Invalid] += clean
	}
	return counts
}

// Clear wipes the whole memory (a transient node failure loses AM
// contents; the node rejoins empty). The slot table keeps its size.
func (a *AM) Clear() {
	for w, page := range a.tags {
		if page != proto.NoPage {
			a.stats.FramesDropped++
		}
		a.tags[w] = proto.NoPage
		f := &a.frames[w]
		f.irreplaceable = false
		f.evicting = false
		f.modified = 0
	}
	clear(a.written)
	clear(a.table)
	a.used = 0
	a.allocated = 0
}
