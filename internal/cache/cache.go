// Package cache models the per-processor data cache of the simulated
// architecture: sectored, set-associative, write-back with respect to the
// local attraction memory. The paper's configuration is a 256 KB 8-way
// cache with 2 KB sectors and 64-byte lines; a sector holds one tag and a
// valid/dirty/writable bit per line.
//
// The cache stores a 64-bit value stamp per line (the simulator's model of
// data contents) so end-to-end value correctness can be checked against
// the machine's oracle.
package cache

import (
	"fmt"

	"coma/internal/config"
)

// Writeback describes a dirty line evicted or flushed to the local AM.
type Writeback struct {
	Addr  uint64
	Value uint64
}

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

// Accesses returns the total number of processor accesses.
func (s Stats) Accesses() int64 {
	return s.ReadHits + s.ReadMisses + s.WriteHits + s.WriteMisses
}

// MissRate returns the overall miss rate in [0,1].
func (s Stats) MissRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.ReadMisses+s.WriteMisses) / float64(a)
}

type line struct {
	valid    bool
	dirty    bool
	writable bool
	value    uint64
}

type sector struct {
	valid   bool
	tag     uint64 // global sector number
	lastUse int64
	lines   []line
}

// Cache is one processor's data cache.
type Cache struct {
	arch       config.Arch
	sets       [][]sector // [set][way]
	numSets    int
	sectorSize uint64
	stats      Stats
}

// New builds an empty cache for the architecture.
func New(arch config.Arch) *Cache {
	sectorSize := arch.CacheLineSize * arch.CacheSectors
	numSectors := arch.CacheSize / sectorSize
	numSets := numSectors / arch.CacheWays
	if numSets < 1 {
		panic(fmt.Sprintf("cache: geometry yields %d sets", numSets))
	}
	c := &Cache{
		arch:       arch,
		numSets:    numSets,
		sectorSize: uint64(sectorSize),
		sets:       make([][]sector, numSets),
	}
	// One backing array for all sectors and one for all their lines: a
	// machine build allocates a few blocks per cache, not one per sector.
	sectors := make([]sector, numSets*arch.CacheWays)
	lines := make([]line, len(sectors)*arch.CacheSectors)
	for i := range sectors {
		sectors[i].lines = lines[i*arch.CacheSectors : (i+1)*arch.CacheSectors : (i+1)*arch.CacheSectors]
	}
	for i := range c.sets {
		c.sets[i] = sectors[i*arch.CacheWays : (i+1)*arch.CacheWays : (i+1)*arch.CacheWays]
	}
	return c
}

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) locate(addr uint64) (setIdx int, tag uint64, lineIdx int) {
	sectorNum := addr / c.sectorSize
	return int(sectorNum % uint64(c.numSets)), sectorNum, int(addr%c.sectorSize) / c.arch.CacheLineSize
}

func (c *Cache) findSector(setIdx int, tag uint64) *sector {
	for w := range c.sets[setIdx] {
		s := &c.sets[setIdx][w]
		if s.valid && s.tag == tag {
			return s
		}
	}
	return nil
}

// Access performs one processor access. For a read it returns (value,
// true) on a hit. For a write it returns true only if the line is present
// and writable; the write is applied. On any miss the caller runs the
// below protocol and then calls Fill (and Write again for writes).
func (c *Cache) Access(addr uint64, write bool, value uint64, now int64) (uint64, bool) {
	setIdx, tag, li := c.locate(addr)
	s := c.findSector(setIdx, tag)
	if s != nil && s.lines[li].valid {
		if !write {
			s.lastUse = now
			c.stats.ReadHits++
			return s.lines[li].value, true
		}
		if s.lines[li].writable {
			s.lastUse = now
			s.lines[li].value = value
			s.lines[li].dirty = true
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
	setIdx, tag, li := c.locate(addr)
	s := c.findSector(setIdx, tag)
	return s != nil && s.lines[li].valid
}

// Writable reports whether the line covering addr is valid and writable.
func (c *Cache) Writable(addr uint64) bool {
	setIdx, tag, li := c.locate(addr)
	s := c.findSector(setIdx, tag)
	return s != nil && s.lines[li].valid && s.lines[li].writable
}

// Fill installs the line covering addr with the given value and write
// permission, allocating (and possibly evicting) a sector. It returns the
// dirty lines of an evicted sector, which the caller must write back to
// the local AM.
func (c *Cache) Fill(addr uint64, writable bool, value uint64, now int64) []Writeback {
	return c.fill(addr, writable, false, value, now)
}

// FillDirty installs the line as written data (valid, writable, dirty) —
// the write-miss completion path.
func (c *Cache) FillDirty(addr uint64, value uint64, now int64) []Writeback {
	return c.fill(addr, true, true, value, now)
}

func (c *Cache) fill(addr uint64, writable, dirty bool, value uint64, now int64) []Writeback {
	setIdx, tag, li := c.locate(addr)
	s := c.findSector(setIdx, tag)
	var evicted []Writeback
	if s == nil {
		s, evicted = c.allocate(setIdx, tag, now)
	}
	s.lastUse = now
	s.lines[li] = line{valid: true, writable: writable, dirty: dirty, value: value}
	return evicted
}

// SetItemValue refreshes the value of every valid cache line covering the
// item (the simulator models contents per item, so a write through one
// line must be visible through the other).
func (c *Cache) SetItemValue(itemAddr uint64, value uint64) {
	c.forEachLineOfItem(itemAddr, func(s *sector, li int) {
		s.lines[li].value = value
	})
}

// DowngradeAll removes write permission from every line (recovery-point
// quiesce: all Exclusive AM copies are about to become Pre-Commit).
// Dirty bits are untouched; flush first.
func (c *Cache) DowngradeAll() {
	for setIdx := range c.sets {
		for w := range c.sets[setIdx] {
			s := &c.sets[setIdx][w]
			if !s.valid {
				continue
			}
			for li := range s.lines {
				s.lines[li].writable = false
			}
		}
	}
}

func (c *Cache) allocate(setIdx int, tag uint64, now int64) (*sector, []Writeback) {
	set := c.sets[setIdx]
	victim := &set[0]
	for w := range set {
		s := &set[w]
		if !s.valid {
			victim = s
			break
		}
		if s.lastUse < victim.lastUse {
			victim = s
		}
	}
	var wbs []Writeback
	if victim.valid {
		c.stats.Evictions++
		base := victim.tag * c.sectorSize
		for i := range victim.lines {
			if victim.lines[i].valid && victim.lines[i].dirty {
				c.stats.Writebacks++
				wbs = append(wbs, Writeback{
					Addr:  base + uint64(i*c.arch.CacheLineSize),
					Value: victim.lines[i].value,
				})
			}
			victim.lines[i] = line{}
		}
	}
	victim.valid = true
	victim.tag = tag
	victim.lastUse = now
	return victim, wbs
}

// forEachLineOfItem visits the cache lines covering the item starting at
// itemAddr (LinesPerItem consecutive lines).
func (c *Cache) forEachLineOfItem(itemAddr uint64, fn func(s *sector, li int)) {
	for l := 0; l < c.arch.LinesPerItem(); l++ {
		addr := itemAddr + uint64(l*c.arch.CacheLineSize)
		setIdx, tag, li := c.locate(addr)
		if s := c.findSector(setIdx, tag); s != nil && s.lines[li].valid {
			fn(s, li)
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
	c.forEachLineOfItem(itemAddr, func(s *sector, li int) {
		s.lines[li] = line{}
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
	c.forEachLineOfItem(itemAddr, func(s *sector, li int) {
		s.lines[li].writable = false
		s.lines[li].dirty = false
	})
}

// ItemDirtyValue returns the most recent dirty value cached for the item,
// if any line covering it is dirty. The AM consults this before serving a
// remote request so the reply carries current data.
func (c *Cache) ItemDirtyValue(itemAddr uint64) (uint64, bool) {
	var v uint64
	found := false
	c.forEachLineOfItem(itemAddr, func(s *sector, li int) {
		if s.lines[li].dirty {
			v = s.lines[li].value
			found = true
		}
	})
	return v, found
}

// FlushDirty writes every dirty line back through fn (addr, value),
// clearing dirty bits but keeping lines valid and readable. Write
// permission is also dropped: after a recovery point the AM copy is no
// longer Exclusive. It returns the number of lines flushed.
func (c *Cache) FlushDirty(fn func(addr, value uint64)) int {
	n := 0
	for setIdx := range c.sets {
		for w := range c.sets[setIdx] {
			s := &c.sets[setIdx][w]
			if !s.valid {
				continue
			}
			base := s.tag * c.sectorSize
			for li := range s.lines {
				if s.lines[li].valid && s.lines[li].dirty {
					fn(base+uint64(li*c.arch.CacheLineSize), s.lines[li].value)
					s.lines[li].dirty = false
					s.lines[li].writable = false
					n++
				}
			}
		}
	}
	return n
}

// DirtyLines returns the number of dirty lines currently held.
func (c *Cache) DirtyLines() int {
	n := 0
	for setIdx := range c.sets {
		for w := range c.sets[setIdx] {
			s := &c.sets[setIdx][w]
			if !s.valid {
				continue
			}
			for li := range s.lines {
				if s.lines[li].valid && s.lines[li].dirty {
					n++
				}
			}
		}
	}
	return n
}

// InvalidateAll empties the cache (recovery rollback: Shared copies
// cannot be told apart from stale data, so everything goes).
func (c *Cache) InvalidateAll() {
	for setIdx := range c.sets {
		for w := range c.sets[setIdx] {
			s := &c.sets[setIdx][w]
			if s.valid {
				for li := range s.lines {
					if s.lines[li].valid {
						c.stats.Invalidations++
					}
				}
			}
			*s = sector{lines: s.lines}
			for li := range s.lines {
				s.lines[li] = line{}
			}
		}
	}
}
