// Package cache models the per-processor data cache of the simulated
// architecture: sectored, set-associative, write-back with respect to the
// local attraction memory. The paper's configuration is a 256 KB 8-way
// cache with 2 KB sectors and 64-byte lines; a sector holds one tag and a
// valid/dirty/writable bit per line.
//
// A cache built with stamps also stores a 64-bit value stamp per line
// (the simulator's model of data contents), so a strict run can check
// the value of every read hit against the machine's oracle. Without
// stamps a read hit returns 0; hits, misses, evictions and statistics
// do not depend on the stamps.
package cache

import (
	"fmt"

	"coma/internal/config"
)

// Stats counts cache activity, split by read/write as in the paper's
// Fig. 5 discussion.
type Stats struct {
	ReadHits    int64
	ReadMisses  int64
	WriteHits   int64
	WriteMisses int64
	// UpgradeMisses are writes that hit a valid but non-writable line
	// (counted inside WriteMisses as well: they cost a coherence
	// transaction even though the data was present).
	UpgradeMisses int64
	Evictions     int64
	Writebacks    int64
	Invalidations int64
}

// Per-line flag bits.
const (
	lineValid uint8 = 1 << iota
	lineDirty
	lineWritable
)

// A sector is one tagged way. Its lines live in the cache's shared
// value and flag arrays, at [i*linesPerSector, (i+1)*linesPerSector)
// for sector i.
type sector struct {
	tag     uint64 // global sector number
	lastUse int64
	valid   bool
}

// Cache is one processor's data cache.
type Cache struct {
	// Geometry, computed once from the architecture.
	numSets        int
	ways           int
	sectorSize     uint64
	lineSize       uint64
	linesPerSector int
	linesPerItem   int

	sectors []sector // way w of set s is sectors[s*ways+w]
	// values holds one value stamp per line, meaningful only while the
	// line's flag byte has lineValid, or is nil for a cache without
	// stamps. A line's flags are all clear whenever it is not valid, and
	// every line of an invalid sector is.
	values []uint64
	flags  []uint8 // one lineValid|lineDirty|lineWritable byte per line
	stats  Stats
}

// New builds an empty cache for the architecture. With stamps it keeps
// a value stamp per line and a read hit returns the line's value;
// without, it keeps only the line flags.
func New(arch config.Arch, stamps bool) *Cache {
	sectorSize := arch.CacheLineSize * arch.CacheSectors
	numSectors := arch.CacheSize / sectorSize
	numSets := numSectors / arch.CacheWays
	if numSets < 1 {
		panic(fmt.Sprintf("cache: geometry yields %d sets", numSets))
	}
	lines := numSets * arch.CacheWays * arch.CacheSectors
	var values []uint64
	if stamps {
		values = make([]uint64, lines)
	}
	return &Cache{
		numSets:        numSets,
		ways:           arch.CacheWays,
		sectorSize:     uint64(sectorSize),
		lineSize:       uint64(arch.CacheLineSize),
		linesPerSector: arch.CacheSectors,
		linesPerItem:   arch.LinesPerItem(),
		sectors:        make([]sector, numSets*arch.CacheWays),
		values:         values,
		flags:          make([]uint8, lines),
	}
}

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// locate returns the set and global sector number of addr, and the
// line's index within its sector.
func (c *Cache) locate(addr uint64) (setIdx int, tag uint64, lineIdx int) {
	sectorNum := addr / c.sectorSize
	return int(sectorNum % uint64(c.numSets)), sectorNum, int((addr - sectorNum*c.sectorSize) / c.lineSize)
}

// findSector returns the index of the set's valid sector with the tag,
// or -1.
func (c *Cache) findSector(setIdx int, tag uint64) int {
	base := setIdx * c.ways
	set := c.sectors[base : base+c.ways]
	for w := range set {
		if s := &set[w]; s.valid && s.tag == tag {
			return base + w
		}
	}
	return -1
}

// findLine returns the index into values and flags of the valid line
// covering addr, and the line's sector, or -1 when the line is absent.
func (c *Cache) findLine(addr uint64) (line, si int) {
	setIdx, tag, li := c.locate(addr)
	si = c.findSector(setIdx, tag)
	if si < 0 {
		return -1, -1
	}
	line = si*c.linesPerSector + li
	if c.flags[line]&lineValid == 0 {
		return -1, si
	}
	return line, si
}

// Access performs one processor access. For a read it returns (value,
// true) on a hit, the value being 0 without stamps. For a write it
// returns true only if the line is present and writable; the write is
// applied. On any miss the caller runs the below protocol and then
// calls Fill (and Write again for writes).
func (c *Cache) Access(addr uint64, write bool, value uint64, now int64) (uint64, bool) {
	if l, si := c.findLine(addr); l >= 0 {
		if !write {
			c.sectors[si].lastUse = now
			c.stats.ReadHits++
			if c.values == nil {
				return 0, true
			}
			return c.values[l], true
		}
		if c.flags[l]&lineWritable != 0 {
			c.sectors[si].lastUse = now
			if c.values != nil {
				c.values[l] = value
			}
			c.flags[l] |= lineDirty
			c.stats.WriteHits++
			return value, true
		}
		c.stats.UpgradeMisses++
	}
	if write {
		c.stats.WriteMisses++
	} else {
		c.stats.ReadMisses++
	}
	return 0, false
}

// Contains reports whether the line covering addr is valid (without
// touching LRU state or statistics).
func (c *Cache) Contains(addr uint64) bool {
	l, _ := c.findLine(addr)
	return l >= 0
}

// Writable reports whether the line covering addr is valid and writable.
func (c *Cache) Writable(addr uint64) bool {
	l, _ := c.findLine(addr)
	return l >= 0 && c.flags[l]&lineWritable != 0
}

// Fill installs the line covering addr with the given value and write
// permission, allocating (and possibly evicting) a sector. It returns the
// number of dirty lines of an evicted sector, which the caller must
// write back to the local AM (their values are already there: the
// simulator models contents per item, written through).
func (c *Cache) Fill(addr uint64, writable bool, value uint64, now int64) (dirty int) {
	return c.fill(addr, writable, false, value, now)
}

// FillDirty installs the line as written data (valid, writable, dirty) —
// the write-miss completion path. It returns what Fill does.
func (c *Cache) FillDirty(addr uint64, value uint64, now int64) (dirty int) {
	return c.fill(addr, true, true, value, now)
}

func (c *Cache) fill(addr uint64, writable, dirty bool, value uint64, now int64) (evicted int) {
	setIdx, tag, li := c.locate(addr)
	si := c.findSector(setIdx, tag)
	if si < 0 {
		si, evicted = c.allocate(setIdx, tag, now)
	}
	c.sectors[si].lastUse = now
	l := si*c.linesPerSector + li
	flags := lineValid
	if writable {
		flags |= lineWritable
	}
	if dirty {
		flags |= lineDirty
	}
	c.flags[l] = flags
	if c.values != nil {
		c.values[l] = value
	}
	return evicted
}

// SetItemValue refreshes the value of every valid cache line covering the
// item (the simulator models contents per item, so a write through one
// line must be visible through the other). Without stamps it does
// nothing.
func (c *Cache) SetItemValue(itemAddr uint64, value uint64) {
	if c.values == nil {
		return
	}
	c.forEachLineOfItem(itemAddr, func(l int) {
		c.values[l] = value
	})
}

// DowngradeAll removes write permission from every line (recovery-point
// quiesce: all Exclusive AM copies are about to become Pre-Commit).
// Dirty bits are untouched; flush first. Lines of invalid sectors have
// no flags set, so every flag byte can be cleared alike.
func (c *Cache) DowngradeAll() {
	for l := range c.flags {
		c.flags[l] &^= lineWritable
	}
}

// allocate claims a sector of the set for tag, evicting the least
// recently used one if the set is full, and returns it with the number
// of dirty lines evicted.
func (c *Cache) allocate(setIdx int, tag uint64, now int64) (si, dirty int) {
	base := setIdx * c.ways
	set := c.sectors[base : base+c.ways]
	victim := 0
	for w := range set {
		if !set[w].valid {
			victim = w
			break
		}
		if set[w].lastUse < set[victim].lastUse {
			victim = w
		}
	}
	si = base + victim
	if c.sectors[si].valid {
		c.stats.Evictions++
		first := si * c.linesPerSector
		for l := first; l < first+c.linesPerSector; l++ {
			if c.flags[l]&(lineValid|lineDirty) == lineValid|lineDirty {
				dirty++
			}
			c.flags[l] = 0
		}
		c.stats.Writebacks += int64(dirty)
	}
	c.sectors[si] = sector{valid: true, tag: tag, lastUse: now}
	return si, dirty
}

// forEachLineOfItem visits the valid cache lines covering the item
// starting at itemAddr (LinesPerItem consecutive lines).
func (c *Cache) forEachLineOfItem(itemAddr uint64, fn func(l int)) {
	for i := 0; i < c.linesPerItem; i++ {
		if l, _ := c.findLine(itemAddr + uint64(i)*c.lineSize); l >= 0 {
			fn(l)
		}
	}
}

// InvalidateItem drops all lines covering the item starting at itemAddr
// (a remote node took exclusive ownership, or recovery invalidated the
// local AM copy). Dirty contents are discarded: the coherence protocol
// guarantees a dirty line only exists while the local AM copy is
// Exclusive, and exclusivity is only revoked after the data has been
// transferred.
func (c *Cache) InvalidateItem(itemAddr uint64) int {
	n := 0
	c.forEachLineOfItem(itemAddr, func(l int) {
		c.flags[l] = 0
		n++
	})
	c.stats.Invalidations += int64(n)
	return n
}

// DowngradeItem clears write permission (and dirtiness) on the lines
// covering the item, keeping them readable. Used when the local AM copy
// leaves Exclusive (remote read, or checkpoint flush): the data stays in
// the cache and "can still be read by processors" (paper §4.2.3).
func (c *Cache) DowngradeItem(itemAddr uint64) {
	c.forEachLineOfItem(itemAddr, func(l int) {
		c.flags[l] &^= lineWritable | lineDirty
	})
}

// FlushDirty cleans every dirty line, keeping lines valid and readable
// (their values are already in the local AM: the simulator models
// contents per item, written through). Write permission is also
// dropped: after a recovery point the AM copy is no longer Exclusive.
// It returns the number of lines flushed. Lines of invalid sectors have
// no flags set, so every flag byte can be examined alike.
func (c *Cache) FlushDirty() int {
	n := 0
	for l, f := range c.flags {
		if f&(lineValid|lineDirty) == lineValid|lineDirty {
			c.flags[l] = f &^ (lineDirty | lineWritable)
			n++
		}
	}
	return n
}

// DirtyLines returns the number of dirty lines currently held.
func (c *Cache) DirtyLines() int {
	n := 0
	for _, f := range c.flags {
		if f&(lineValid|lineDirty) == lineValid|lineDirty {
			n++
		}
	}
	return n
}

// InvalidateAll empties the cache (recovery rollback: Shared copies
// cannot be told apart from stale data, so everything goes).
func (c *Cache) InvalidateAll() {
	for l, f := range c.flags {
		if f&lineValid != 0 {
			c.stats.Invalidations++
		}
		c.flags[l] = 0
	}
	clear(c.sectors)
}
