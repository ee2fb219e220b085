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
	"slices"

	"coma/internal/config"
	"coma/internal/proto"
)

// Slot is the per-item metadata held in a frame. Its fields are ordered
// widest first so a slot packs into 16 bytes.
type Slot struct {
	// Value is the simulator's model of the item's 128 bytes: a 64-bit
	// stamp checked against the machine oracle.
	Value uint64
	// Partner is the node holding the other copy of a recovery pair;
	// meaningful only while State.Recovery() is true.
	Partner proto.NodeID
	State   proto.State
}

// cleanSlot is the slot of an item that holds no copy.
var cleanSlot = Slot{State: proto.Invalid, Partner: proto.None}

// chunkItems is how many consecutive items of a page share one chunk of
// slots. Most frames hold only a few live items (ECP's anchor frames
// especially), so a frame materialises a chunk only when one of its
// items is first written.
const chunkItems = 8

// A chunk holds the slots of chunkItems consecutive items of a page. It
// holds no pointers, so the collector never scans chunk blocks.
type chunk [chunkItems]Slot

// cleanChunk is a chunk whose every slot is clean.
var cleanChunk = chunk{cleanSlot, cleanSlot, cleanSlot, cleanSlot, cleanSlot, cleanSlot, cleanSlot, cleanSlot}

// Chunks and frames' chunk references are carved from per-AM blocks
// whose size doubles from the first to the last constant: an AM that
// uses few frames makes small blocks, and a busy one few allocations.
const (
	firstChunkBlock = 16  // chunks
	lastChunkBlock  = 128 // chunks
	firstRefBlock   = 8   // frames' chunk references
	lastRefBlock    = 64  // frames' chunk references
)

// A frame is one way of a set. Its page is the way's entry in AM.tags.
type frame struct {
	// chunks holds one reference per chunkItems items of the page (the
	// last chunk is partial when ItemsPerPage is not a multiple of
	// chunkItems): nil until one of the chunk's items is written. The references are
	// carved when the way is first allocated; a chunk, once
	// materialised, stays with the way and is wiped on every
	// AllocFrame.
	chunks  []*chunk
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
	// chunksPerPage is the length of every frame's chunk references.
	chunksPerPage int
	// chunkSpare and refSpare are the unused tails of the latest chunk
	// and reference blocks; chunkBlock and refBlock size the next ones
	// (refBlock in frames).
	chunkSpare []chunk
	refSpare   []*chunk
	chunkBlock int
	refBlock   int
	// scratch is the copy of the clean slot a scan hands its callback
	// for an item that was never written. The AM never writes it: a
	// callback that changes it makes the scan panic, and the AM is
	// unusable after such a panic.
	scratch Slot

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
		node:          node,
		itemsPerPage:  per,
		numSets:       arch.AMSets(),
		ways:          arch.AMWays,
		scanFrame:     arch.CommitPageTest + int64(per)*arch.CommitItemTest,
		controllers:   int64(arch.AMControllers),
		chunksPerPage: (per + chunkItems - 1) / chunkItems,
		chunkBlock:    firstChunkBlock,
		refBlock:      firstRefBlock,
		scratch:       cleanSlot,
	}
	a.tags = make([]proto.PageID, a.numSets*a.ways)
	for i := range a.tags {
		a.tags[i] = proto.NoPage
	}
	a.frames = make([]frame, len(a.tags))
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

// frameFor returns the frame holding the item and the item's index in
// it; the frame is nil when the item's page is not allocated.
func (a *AM) frameFor(item proto.ItemID) (*frame, int) {
	page := int(item) / a.itemsPerPage
	return a.frameOf(proto.PageID(page)), int(item) - page*a.itemsPerPage
}

// slotFor returns the item's slot, or nil when its page is not
// allocated or its chunk was never written (the slot is clean).
func (a *AM) slotFor(item proto.ItemID) *Slot {
	f, i := a.frameFor(item)
	if f == nil {
		return nil
	}
	c := f.chunks[i/chunkItems]
	if c == nil {
		return nil
	}
	return &c[i%chunkItems]
}

// chunkFor returns the chunk holding item index i of frame f, carving
// one when none of its items was written yet. fresh reports a carved
// chunk: its contents are stale, and the caller (one of the audited
// setters) wipes it to cleanChunk before writing.
func (a *AM) chunkFor(f *frame, i int) (c *chunk, fresh bool) {
	k := i / chunkItems
	if c = f.chunks[k]; c == nil {
		if len(a.chunkSpare) == 0 {
			a.chunkSpare = make([]chunk, a.chunkBlock)
			a.chunkBlock = min(2*a.chunkBlock, lastChunkBlock)
		}
		c = &a.chunkSpare[0]
		a.chunkSpare = a.chunkSpare[1:]
		f.chunks[k] = c
		fresh = true
	}
	return c, fresh
}

// slotsOf returns the page's slots held by chunk k of frame f: nil when
// the chunk was never written, and fewer than chunkItems for a partial
// last chunk.
func (a *AM) slotsOf(f *frame, k int) []Slot {
	c := f.chunks[k]
	if c == nil {
		return nil
	}
	return c[:min(chunkItems, a.itemsPerPage-k*chunkItems)]
}

func (a *AM) firstItem(page proto.PageID) proto.ItemID {
	return proto.ItemID(int(page) * a.itemsPerPage)
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
	s := a.slotFor(item)
	if s == nil {
		return proto.Invalid
	}
	return s.State
}

// Slot returns a copy of the item's slot (the clean slot, Invalid with
// no partner, when the page is unallocated or the item never written).
func (a *AM) Slot(item proto.ItemID) Slot {
	s := a.slotFor(item)
	if s == nil {
		return cleanSlot
	}
	return *s
}

// Set installs state, value and partner for an item. The page frame must
// be allocated. Modified-item bookkeeping is maintained.
func (a *AM) Set(item proto.ItemID, slot Slot) {
	f, idx := a.frameFor(item)
	if f == nil {
		panic(fmt.Sprintf("am: Set(%d) on node %v without a frame for page %d",
			item, a.node, int(item)/a.itemsPerPage))
	}
	c, fresh := a.chunkFor(f, idx)
	if fresh {
		*c = cleanChunk
	}
	old := &c[idx%chunkItems]
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
	f, idx := a.frameFor(item)
	if f == nil {
		panic(fmt.Sprintf("am: SetState(%d) on node %v without a frame", item, a.node))
	}
	c, fresh := a.chunkFor(f, idx)
	if fresh {
		*c = cleanChunk
	}
	s := &c[idx%chunkItems]
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
	f, idx := a.frameFor(item)
	if f == nil {
		panic(fmt.Sprintf("am: SetPartner(%d) on node %v without a frame", item, a.node))
	}
	c, fresh := a.chunkFor(f, idx)
	if fresh {
		*c = cleanChunk
	}
	c[idx%chunkItems].Partner = partner
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
// evict via VictimPage/DropFrame).
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
		if f.chunks == nil {
			// A frame gets its chunk references on first use: most
			// frames of an AM are never allocated in a run, and
			// building a machine would otherwise touch memory for all
			// of them. They are carved from a block of refBlock frames'
			// worth, so a run makes one allocation per block rather
			// than per frame.
			n := a.chunksPerPage
			if len(a.refSpare) < n {
				a.refSpare = make([]*chunk, a.refBlock*n)
				a.refBlock = min(2*a.refBlock, lastRefBlock)
			}
			f.chunks = a.refSpare[:n:n]
			a.refSpare = a.refSpare[n:]
		}
		for _, c := range f.chunks {
			if c != nil {
				*c = cleanChunk
			}
		}
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
	f := a.frameOf(page)
	if f == nil {
		return nil
	}
	var out []proto.ItemID
	first := a.firstItem(page)
	for k := range f.chunks {
		for j, s := range a.slotsOf(f, k) {
			if !s.State.Replaceable() {
				out = append(out, first+proto.ItemID(k*chunkItems+j))
			}
		}
	}
	return out
}

// DropFrame deallocates the page's frame. Every item must be in a
// replaceable state (Invalid or Shared); it panics otherwise.
func (a *AM) DropFrame(page proto.PageID) {
	w := a.way(page)
	if w < 0 {
		panic(fmt.Sprintf("am: DropFrame(%d) on node %v without a frame", page, a.node))
	}
	f := &a.frames[w]
	for k := range f.chunks {
		for j, s := range a.slotsOf(f, k) {
			if !s.State.Replaceable() {
				panic(fmt.Sprintf("am: DropFrame(%d) on node %v would lose item %d in %v",
					page, a.node, int(a.firstItem(page))+k*chunkItems+j, s.State))
			}
		}
	}
	a.tags[w] = proto.NoPage
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
		f := &a.frames[w]
		if page == proto.NoPage || f.modified == 0 {
			continue
		}
		first := a.firstItem(page)
		for k := range f.chunks {
			for j, s := range a.slotsOf(f, k) {
				if s.State.Modified() {
					dst = append(dst, first+proto.ItemID(k*chunkItems+j))
				}
			}
		}
	}
	return dst
}

// ForEachAllocated visits every slot of every allocated frame in
// deterministic order. fn may mutate state via the AM's setters but must
// not allocate or drop frames. An item that was never written is handed
// over as a copy of the clean slot, which fn must leave unchanged (every
// scan treats Invalid as a no-op); the scan panics if fn changes it.
func (a *AM) ForEachAllocated(fn func(item proto.ItemID, slot *Slot)) {
	for w, page := range a.tags {
		if page == proto.NoPage {
			continue
		}
		f := &a.frames[w]
		first := a.firstItem(page)
		for i := range a.itemsPerPage {
			item := first + proto.ItemID(i)
			c := f.chunks[i/chunkItems]
			if c == nil {
				fn(item, &a.scratch)
				if a.scratch != cleanSlot {
					panic(fmt.Sprintf("am: ForEachAllocated callback on node %v changed never-written item %d to %+v",
						a.node, item, a.scratch))
				}
				continue
			}
			s := &c[i%chunkItems]
			before := s.State.Modified()
			fn(item, s)
			after := s.State.Modified()
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
// the invariant checker and memory-overhead reporting).
func (a *AM) StateCounts() map[proto.State]int {
	counts := make(map[proto.State]int)
	a.ForEachAllocated(func(_ proto.ItemID, s *Slot) {
		counts[s.State]++
	})
	return counts
}

// Clear wipes the whole memory (a transient node failure loses AM
// contents; the node rejoins empty). Slots need no wipe: AllocFrame
// resets a frame's chunks whenever it hands the frame out again.
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
	a.allocated = 0
}
