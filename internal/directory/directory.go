// Package directory implements the localisation machinery of the
// non-hierarchical COMA: statically distributed localisation pointers
// (each item has a home node that knows the current owner) and the
// per-item directory entry (sharing set, recovery-pair partner) that the
// paper keeps "on the node which is the current owner of the item".
//
// The simulator stores entries in one table for efficiency; the *cost* of
// consulting and updating them is paid in messages and cycles by the
// protocol engine, so the timing behaves as if the state were physically
// distributed. Membership (which nodes are alive, the logical injection
// ring, the home mapping) also lives here because home assignment and the
// ring must be recomputed when a node fails permanently.
package directory

import (
	"fmt"
	"math/bits"

	"coma/internal/proto"
)

// Entry is a handle on the directory state of one item. It stays valid
// until the item is dropped: records never move, only their index slots
// do. The zero Entry is no item's.
type Entry struct {
	owner *proto.NodeID
	// Sharers is the set of nodes holding Shared copies (the owner is
	// not a member).
	Sharers Bitset
}

// Owner returns the node whose copy answers requests: the holder of the
// Exclusive, MasterShared, SharedCK1 or PreCommit1 copy. None until the
// item is first touched (and again after a rollback that discards a
// never-checkpointed item).
func (e Entry) Owner() proto.NodeID { return *e.owner }

// SetOwner records the item's new owner.
func (e Entry) SetOwner(n proto.NodeID) { *e.owner = n }

// The item index starts at firstIndex slots on the first Ensure and
// doubles whenever it would pass maxLoadNum/maxLoadDen full. Records are
// carved recBlock at a time.
const (
	firstIndex = 1024
	maxLoadNum = 3
	maxLoadDen = 4
	recBlock   = 256
)

// slot is one cell of the item index: key is the item plus one (0 in a
// free slot) and rec the number of the item's record.
type slot struct {
	key proto.ItemID
	rec int32
}

// Directory is the global localisation state for one machine.
type Directory struct {
	nodes int
	alive []bool
	ring  []proto.NodeID // alive nodes in id order

	// index is an open-addressed, linearly probed table from item to
	// record number: nil until the first Ensure, then a power of two
	// long and at most maxLoadNum/maxLoadDen full. used counts its
	// items, and shift turns a hash into a home index.
	index []slot
	used  int
	shift uint

	// Record r is owners[r/recBlock][r%recBlock] and the words sharer
	// words of sharers[r/recBlock] from (r%recBlock)*words on. Blocks
	// are allocated whole and never move, so an Entry may point into
	// them. recs counts the records carved so far. Dropped records are
	// kept for reuse on a free list threaded through their first sharer
	// word, which holds the next free record plus one (0 ends the list);
	// free is the most recently dropped record plus one, or 0.
	owners  [][]proto.NodeID
	sharers [][]uint64
	words   int
	recs    int32
	free    int32
}

// New builds a directory for n nodes, all alive.
func New(n int) *Directory {
	if n < 1 {
		panic("directory: need at least one node")
	}
	d := &Directory{
		nodes: n,
		alive: make([]bool, n),
		words: (n + 63) / 64,
	}
	for i := range d.alive {
		d.alive[i] = true
	}
	d.rebuildRing()
	return d
}

// Nodes returns the configured node count (including dead nodes).
func (d *Directory) Nodes() int { return d.nodes }

// AliveCount returns the number of live nodes.
func (d *Directory) AliveCount() int { return len(d.ring) }

// Alive reports whether the node is live.
func (d *Directory) Alive(n proto.NodeID) bool { return d.alive[n] }

// AliveNodes returns the live nodes in id order. Callers must not mutate
// the returned slice.
func (d *Directory) AliveNodes() []proto.NodeID { return d.ring }

// SetAlive updates a node's liveness and recomputes the home mapping and
// logical ring. Killing the last node panics.
func (d *Directory) SetAlive(n proto.NodeID, alive bool) {
	d.alive[n] = alive
	d.rebuildRing()
	if len(d.ring) == 0 {
		panic("directory: no live nodes")
	}
}

func (d *Directory) rebuildRing() {
	d.ring = d.ring[:0]
	for i := 0; i < d.nodes; i++ {
		if d.alive[i] {
			d.ring = append(d.ring, proto.NodeID(i))
		}
	}
}

// Home returns the node holding the localisation pointer for the item:
// statically distributed over the live nodes.
func (d *Directory) Home(item proto.ItemID) proto.NodeID {
	return d.ring[int(item)%len(d.ring)]
}

// NextAlive returns the successor of n on the logical injection ring,
// skipping dead nodes. n itself need not be alive.
func (d *Directory) NextAlive(n proto.NodeID) proto.NodeID {
	if len(d.ring) == 1 {
		return d.ring[0]
	}
	for i := 1; i <= d.nodes; i++ {
		cand := proto.NodeID((int(n) + i) % d.nodes)
		if d.alive[cand] {
			return cand
		}
	}
	panic("directory: ring walk found no live node")
}

// Anchors appends to dst the irreplaceable-frame holders for a page: the
// given first toucher plus the following live ring nodes, count nodes in
// total (or fewer if the machine is smaller).
func (d *Directory) Anchors(dst []proto.NodeID, firstToucher proto.NodeID, count int) []proto.NodeID {
	if count > len(d.ring) {
		count = len(d.ring)
	}
	n := firstToucher
	if !d.alive[n] {
		n = d.NextAlive(n)
	}
	for range count {
		dst = append(dst, n)
		n = d.NextAlive(n)
	}
	return dst
}

// Lookup returns the entry for an item, and false if it was never
// created (or was dropped).
func (d *Directory) Lookup(item proto.ItemID) (Entry, bool) {
	i := d.find(item)
	if i < 0 {
		return Entry{}, false
	}
	return d.entry(d.index[i].rec), true
}

// Ensure returns the entry for an item, creating an ownerless one on
// first touch.
func (d *Directory) Ensure(item proto.ItemID) Entry {
	if i := d.find(item); i >= 0 {
		return d.entry(d.index[i].rec)
	}
	if (d.used+1)*maxLoadDen > len(d.index)*maxLoadNum {
		d.grow()
	}
	d.used++
	r := d.newRecord()
	d.index[d.vacant(item+1)] = slot{key: item + 1, rec: r}
	return d.entry(r)
}

// entry returns the handle on record r.
func (d *Directory) entry(r int32) Entry {
	b, o := r/recBlock, int(r%recBlock)*d.words
	return Entry{
		owner:   &d.owners[b][r%recBlock],
		Sharers: Bitset{words: d.sharers[b][o : o+d.words : o+d.words], n: d.nodes},
	}
}

// newRecord returns the number of an ownerless record with an empty
// sharer set: a dropped one if any, else the next one of the current
// block, allocating a block when the last one is used up.
func (d *Directory) newRecord() int32 {
	var r int32
	if d.free != 0 {
		r = d.free - 1
		d.free = int32(*d.link(r))
	} else {
		if d.recs%recBlock == 0 {
			d.owners = append(d.owners, make([]proto.NodeID, recBlock))
			d.sharers = append(d.sharers, make([]uint64, recBlock*d.words))
		}
		r = d.recs
		d.recs++
	}
	e := d.entry(r)
	e.SetOwner(proto.None)
	e.Sharers.Clear()
	return r
}

// link returns the free-list word of record r: its first sharer word,
// meaningful only while the record is dropped.
func (d *Directory) link(r int32) *uint64 {
	return &d.sharers[r/recBlock][int(r%recBlock)*d.words]
}

// home returns the index slot where the probe for key starts (Fibonacci
// hashing: consecutive items land far apart).
func (d *Directory) home(key proto.ItemID) int {
	return int(uint32(key) * 0x9E3779B9 >> d.shift)
}

// find returns the index slot of the item, or -1 when it has none.
func (d *Directory) find(item proto.ItemID) int {
	if d.index == nil {
		return -1
	}
	key, mask := item+1, len(d.index)-1
	for i := d.home(key); ; i = (i + 1) & mask {
		switch d.index[i].key {
		case key:
			return i
		case 0:
			return -1
		}
	}
}

// vacant returns the first free slot on key's probe sequence; the index
// is never full.
func (d *Directory) vacant(key proto.ItemID) int {
	j, mask := d.home(key), len(d.index)-1
	for d.index[j].key != 0 {
		j = (j + 1) & mask
	}
	return j
}

// grow doubles the index (or makes the first one) and moves every slot
// to its place in the new index. Records stay where they are.
func (d *Directory) grow() {
	old := d.index
	n := max(2*len(old), firstIndex)
	d.index = make([]slot, n)
	d.shift = uint(32 - bits.TrailingZeros(uint(n)))
	for _, s := range old {
		if s.key != 0 {
			d.index[d.vacant(s.key)] = s
		}
	}
}

// Drop removes an item's entry entirely (rollback of an item created
// after the last recovery point). Its record is reused by a later
// Ensure, so callers must not keep the entry past the Drop. Linear
// probing cannot leave a hole in a probe sequence, so each later slot
// of the run that may fill the hole moves back into it (backward-shift
// deletion).
func (d *Directory) Drop(item proto.ItemID) {
	i := d.find(item)
	if i < 0 {
		return
	}
	r := d.index[i].rec
	*d.link(r) = uint64(d.free)
	d.free = r + 1
	mask := len(d.index) - 1
	for j := (i + 1) & mask; d.index[j].key != 0; j = (j + 1) & mask {
		if (j-d.home(d.index[j].key))&mask >= (j-i)&mask {
			d.index[i] = d.index[j]
			i = j
		}
	}
	d.index[i].key = 0
	d.used--
}

// Items returns the number of entries (items ever touched and still
// tracked).
func (d *Directory) Items() int { return d.used }

// ForEach visits every entry. fn must not Ensure or Drop an item.
// Iteration order is unspecified; callers needing determinism must sort.
func (d *Directory) ForEach(fn func(item proto.ItemID, e Entry)) {
	for _, s := range d.index {
		if s.key != 0 {
			fn(s.key-1, d.entry(s.rec))
		}
	}
}

// Bitset is a fixed-capacity set of node IDs.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns an empty set with capacity for nodes 0..n-1.
func NewBitset(n int) Bitset {
	return Bitset{words: make([]uint64, (n+63)/64), n: n}
}

func (b Bitset) check(i proto.NodeID) {
	if int(i) < 0 || int(i) >= b.n {
		panic(fmt.Sprintf("directory: node %v out of bitset range %d", i, b.n))
	}
}

// Add inserts a node.
func (b Bitset) Add(i proto.NodeID) {
	b.check(i)
	b.words[i/64] |= 1 << (uint(i) % 64)
}

// Remove deletes a node.
func (b Bitset) Remove(i proto.NodeID) {
	b.check(i)
	b.words[i/64] &^= 1 << (uint(i) % 64)
}

// Contains reports membership.
func (b Bitset) Contains(i proto.NodeID) bool {
	b.check(i)
	return b.words[i/64]&(1<<(uint(i)%64)) != 0
}

// Len returns the number of members.
func (b Bitset) Len() int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Clear empties the set.
func (b Bitset) Clear() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// ForEach visits members in increasing id order.
func (b Bitset) ForEach(fn func(proto.NodeID)) {
	for wi, w := range b.words {
		for ; w != 0; w &= w - 1 {
			fn(proto.NodeID(wi*64 + bits.TrailingZeros64(w)))
		}
	}
}

// Members returns the members in increasing id order.
func (b Bitset) Members() []proto.NodeID {
	out := make([]proto.NodeID, 0, b.Len())
	b.ForEach(func(n proto.NodeID) { out = append(out, n) })
	return out
}

// First returns the lowest member, or None if empty.
func (b Bitset) First() proto.NodeID {
	for wi, w := range b.words {
		if w != 0 {
			return proto.NodeID(wi*64 + bits.TrailingZeros64(w))
		}
	}
	return proto.None
}
