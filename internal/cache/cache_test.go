package cache

import (
	"math/rand/v2"
	"runtime"
	"testing"
	"testing/quick"

	"coma/internal/config"
)

func newCache() *Cache { return New(config.KSR1(16), true) }

func TestMissThenHit(t *testing.T) {
	c := newCache()
	if _, hit := c.Access(0x1000, false, 0, 1); hit {
		t.Fatal("cold read hit")
	}
	c.Fill(0x1000, false, 7, 1)
	v, hit := c.Access(0x1000, false, 0, 2)
	if !hit || v != 7 {
		t.Fatalf("hit=%v v=%d, want hit with 7", hit, v)
	}
	st := c.Stats()
	if st.ReadMisses != 1 || st.ReadHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSectoredFill(t *testing.T) {
	c := newCache()
	c.Fill(0x1000, false, 1, 1)
	// Same sector (2KB), different line: still a miss — sectored caches
	// validate lines individually.
	if _, hit := c.Access(0x1040, false, 0, 2); hit {
		t.Fatal("unfilled line in a present sector hit")
	}
	c.Fill(0x1040, false, 2, 2)
	if _, hit := c.Access(0x1040, false, 0, 3); !hit {
		t.Fatal("filled line missed")
	}
}

func TestWriteRequiresWritable(t *testing.T) {
	c := newCache()
	c.Fill(0x2000, false, 5, 1) // read-only fill
	if _, ok := c.Access(0x2000, true, 9, 2); ok {
		t.Fatal("write to read-only line succeeded")
	}
	st := c.Stats()
	if st.UpgradeMisses != 1 || st.WriteMisses != 1 {
		t.Fatalf("stats = %+v, want upgrade miss counted", st)
	}
	c.Fill(0x2000, true, 5, 3)
	if _, ok := c.Access(0x2000, true, 9, 4); !ok {
		t.Fatal("write to writable line missed")
	}
	if v, _ := c.Access(0x2000, false, 0, 5); v != 9 {
		t.Fatalf("read back %d, want 9", v)
	}
}

func TestLRUEvictionWithinSet(t *testing.T) {
	arch := config.KSR1(16)
	c := New(arch, true)
	sectorSize := uint64(arch.CacheLineSize * arch.CacheSectors)
	numSets := uint64(arch.CacheSize/(arch.CacheLineSize*arch.CacheSectors)) / uint64(arch.CacheWays)
	// Fill ways+1 sectors mapping to set 0; the LRU one must be evicted.
	stride := sectorSize * numSets
	for i := 0; i <= arch.CacheWays; i++ {
		c.Fill(uint64(i)*stride, false, uint64(i), int64(i+1))
	}
	if c.Contains(0) {
		t.Fatal("LRU sector (first filled) survived eviction")
	}
	if !c.Contains(stride) {
		t.Fatal("second sector was wrongly evicted")
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestEvictionWritesBackDirtyLines(t *testing.T) {
	arch := config.KSR1(16)
	c := New(arch, true)
	sectorSize := uint64(arch.CacheLineSize * arch.CacheSectors)
	numSets := uint64(arch.CacheSize/(arch.CacheLineSize*arch.CacheSectors)) / uint64(arch.CacheWays)
	stride := sectorSize * numSets
	c.Fill(0, true, 1, 1)
	if _, ok := c.Access(0, true, 42, 2); !ok {
		t.Fatal("write missed")
	}
	dirty := 0
	for i := 1; i <= arch.CacheWays; i++ {
		dirty += c.Fill(uint64(i)*stride, false, 0, int64(i+10))
	}
	if dirty != 1 {
		t.Fatalf("dirty lines evicted = %d, want exactly the written one", dirty)
	}
	if wb := c.Stats().Writebacks; wb != 1 {
		t.Fatalf("Stats().Writebacks = %d, want 1", wb)
	}
}

// TestDirtyEvictionAllocatesNothing: a fill that evicts a sector
// holding dirty lines only counts them.
func TestDirtyEvictionAllocatesNothing(t *testing.T) {
	arch := config.KSR1(16)
	c := New(arch, true)
	stride := uint64(arch.CacheLineSize*arch.CacheSectors) *
		(uint64(arch.CacheSize/(arch.CacheLineSize*arch.CacheSectors)) / uint64(arch.CacheWays))
	i := uint64(0)
	dirty := 0
	allocs := testing.AllocsPerRun(100, func() {
		dirty += c.FillDirty(i*stride, i, int64(i))
		i++
	})
	if allocs != 0 {
		t.Fatalf("FillDirty allocated %v times per call, want 0", allocs)
	}
	if dirty == 0 {
		t.Fatal("no fill evicted a dirty sector")
	}
}

func TestInvalidateItemDropsBothLines(t *testing.T) {
	c := newCache()
	// One 128-byte item covers two 64-byte lines.
	c.Fill(0x4000, false, 1, 1)
	c.Fill(0x4040, false, 2, 1)
	if n := c.InvalidateItem(0x4000); n != 2 {
		t.Fatalf("invalidated %d lines, want 2", n)
	}
	if c.Contains(0x4000) || c.Contains(0x4040) {
		t.Fatal("lines survived invalidation")
	}
}

func TestDowngradeKeepsDataReadable(t *testing.T) {
	c := newCache()
	c.Fill(0x4000, true, 3, 1)
	c.Access(0x4000, true, 9, 2)
	c.DowngradeItem(0x4000)
	v, hit := c.Access(0x4000, false, 0, 3)
	if !hit || v != 9 {
		t.Fatalf("downgraded line read = (%d,%v), want (9,true)", v, hit)
	}
	if c.Writable(0x4000) {
		t.Fatal("downgraded line still writable")
	}
	if c.DirtyLines() != 0 {
		t.Fatal("downgraded line still dirty")
	}
}

func TestFlushDirty(t *testing.T) {
	c := newCache()
	c.Fill(0x1000, true, 0, 1)
	c.Fill(0x2000, true, 0, 1)
	c.Access(0x1000, true, 11, 2)
	c.Access(0x2000, true, 22, 2)
	if n := c.FlushDirty(); n != 2 {
		t.Fatalf("flushed %d lines, want 2", n)
	}
	if c.DirtyLines() != 0 {
		t.Fatal("dirty lines remain after flush")
	}
	if n := c.FlushDirty(); n != 0 {
		t.Fatalf("second flush cleaned %d lines, want 0", n)
	}
	// Paper §4.2.3: flushed data stays readable in the cache.
	for addr, want := range map[uint64]uint64{0x1000: 11, 0x2000: 22} {
		if v, hit := c.Access(addr, false, 0, 3); !hit || v != want {
			t.Fatalf("flushed line %#x read = (%d,%v), want (%d,true)", addr, v, hit, want)
		}
	}
	// But a new write needs a coherence transaction.
	if _, ok := c.Access(0x1000, true, 33, 4); ok {
		t.Fatal("write to flushed line succeeded without upgrade")
	}
}

func TestInvalidateAll(t *testing.T) {
	c := newCache()
	for i := 0; i < 10; i++ {
		c.Fill(uint64(i)*0x1000, true, uint64(i), int64(i))
	}
	c.InvalidateAll()
	for i := 0; i < 10; i++ {
		if c.Contains(uint64(i) * 0x1000) {
			t.Fatalf("line %d survived InvalidateAll", i)
		}
	}
}

// Property: after Fill(addr), Access(addr) hits and returns the filled
// value, regardless of the fill history before it.
func TestFillThenHitProperty(t *testing.T) {
	arch := config.KSR1(16)
	f := func(addrs []uint32, final uint32) bool {
		c := New(arch, true)
		now := int64(0)
		for _, a := range addrs {
			now++
			c.Fill(uint64(a)&^63, false, uint64(a), now)
		}
		target := uint64(final) &^ 63
		now++
		c.Fill(target, false, 12345, now)
		v, hit := c.Access(target, false, 0, now+1)
		return hit && v == 12345
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestNewPacksLines guards the cache's layout. Sectors, line values
// and line flags come from one backing array each, so building a
// machine allocates a few blocks per cache rather than one per sector.
// A modelled line costs at most 9 bytes with stamps (an 8-byte value
// stamp and one flag byte) and 1 byte without, plus a fixed header per
// sector.
func TestNewPacksLines(t *testing.T) {
	arch := config.KSR1(16)
	const (
		runs          = 20
		sectorHeader  = 24  // tag, LRU stamp, valid bit
		cacheOverhead = 256 // the Cache struct itself
	)
	lines := arch.CacheLines()
	sectors := lines / arch.CacheSectors
	for _, tc := range []struct {
		name         string
		stamps       bool
		allocs       float64
		bytesPerLine int
	}{
		{"stamps", true, 4, 9},
		{"no-stamps", false, 3, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if allocs := testing.AllocsPerRun(10, func() { New(arch, tc.stamps) }); allocs > tc.allocs {
				t.Fatalf("New = %v allocs, want at most %v", allocs, tc.allocs)
			}
			limit := uint64(tc.bytesPerLine*lines + sectorHeader*sectors + cacheOverhead)
			// The smallest of a few rounds, so an allocation elsewhere in
			// the process during one round does not count against the
			// cache.
			per := ^uint64(0)
			keep := make([]*Cache, runs)
			for round := 0; round < 5; round++ {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				for i := range keep {
					keep[i] = New(arch, tc.stamps)
				}
				runtime.ReadMemStats(&after)
				per = min(per, (after.TotalAlloc-before.TotalAlloc)/runs)
			}
			runtime.KeepAlive(keep)
			if per > limit {
				t.Fatalf("New allocates %d bytes for %d lines in %d sectors, want at most %d",
					per, lines, sectors, limit)
			}
		})
	}
}

// TestSectorsDoNotShareLines fills the first and last line of every
// sector of a full cache with distinct values and reads them all back:
// a sector whose lines overlapped a neighbour's in the shared array
// would return the neighbour's value.
func TestSectorsDoNotShareLines(t *testing.T) {
	arch := config.KSR1(16)
	c := New(arch, true)
	sector := uint64(arch.CacheLineSize * arch.CacheSectors)
	last := uint64(arch.CacheLineSize * (arch.CacheSectors - 1))
	n := uint64(arch.CacheSize) / sector // every way of every set
	for k := uint64(0); k < n; k++ {
		c.Fill(k*sector, false, 2*k, int64(k))
		c.Fill(k*sector+last, false, 2*k+1, int64(k))
	}
	for k := uint64(0); k < n; k++ {
		for i, addr := range []uint64{k * sector, k*sector + last} {
			if v, hit := c.Access(addr, false, 0, int64(n+k)); !hit || v != 2*k+uint64(i) {
				t.Fatalf("sector %d line %d: hit=%v value=%d, want %d", k, i, hit, v, 2*k+uint64(i))
			}
		}
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("%d evictions filling exactly the cache's capacity", st.Evictions)
	}
}

// TestStampFreeCacheMatchesStamped runs one seeded random sequence of
// every cache operation on a stamped and a stamp-free cache. After each
// step the two must agree on hit or miss, Contains, Writable,
// DirtyLines and Stats, and the stamped cache's read hits must return
// the value a reference map of line contents holds. The addresses map
// 12 sectors onto each 8-way set, so fills keep evicting.
func TestStampFreeCacheMatchesStamped(t *testing.T) {
	arch := config.KSR1(16)
	line := uint64(arch.CacheLineSize)
	item := uint64(arch.ItemSize)
	sector := line * uint64(arch.CacheSectors)
	numSectors := uint64(arch.CacheSize) / sector
	const linesUsed = 8 // of each sector, so lines are reused often
	for seed := uint64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewPCG(seed, 37))
		stamped, free := New(arch, true), New(arch, false)
		ref := map[uint64]uint64{} // line address -> value last stored
		var flushed, hits int
		addrAt := func() uint64 {
			return rng.Uint64N(numSectors*12/8)*sector + rng.Uint64N(linesUsed)*line
		}
		agree := func(step int, addr uint64) {
			t.Helper()
			if a, b := stamped.Contains(addr), free.Contains(addr); a != b {
				t.Fatalf("seed %d step %d: Contains(%#x) = %v stamped, %v stamp-free", seed, step, addr, a, b)
			}
			if a, b := stamped.Writable(addr), free.Writable(addr); a != b {
				t.Fatalf("seed %d step %d: Writable(%#x) = %v stamped, %v stamp-free", seed, step, addr, a, b)
			}
		}
		for step := 0; step < 20_000; step++ {
			now := int64(step)
			addr := addrAt()
			itemAddr := addr &^ (item - 1)
			v := rng.Uint64()
			switch op := rng.IntN(1000); {
			case op < 300:
				got, hit := stamped.Access(addr, false, 0, now)
				if _, h := free.Access(addr, false, 0, now); h != hit {
					t.Fatalf("seed %d step %d: read %#x hit %v stamped, %v stamp-free", seed, step, addr, hit, h)
				}
				if hit {
					hits++
					if got != ref[addr] {
						t.Fatalf("seed %d step %d: read %#x = %d, want %d", seed, step, addr, got, ref[addr])
					}
				}
			case op < 500:
				_, ok := stamped.Access(addr, true, v, now)
				if _, o := free.Access(addr, true, v, now); o != ok {
					t.Fatalf("seed %d step %d: write %#x hit %v stamped, %v stamp-free", seed, step, addr, ok, o)
				}
				if ok {
					ref[addr] = v
				}
			case op < 650:
				writable := rng.IntN(2) == 0
				a, b := stamped.Fill(addr, writable, v, now), free.Fill(addr, writable, v, now)
				if a != b {
					t.Fatalf("seed %d step %d: Fill evicted %d dirty stamped, %d stamp-free", seed, step, a, b)
				}
				ref[addr] = v
			case op < 780:
				a, b := stamped.FillDirty(addr, v, now), free.FillDirty(addr, v, now)
				if a != b {
					t.Fatalf("seed %d step %d: FillDirty evicted %d dirty stamped, %d stamp-free", seed, step, a, b)
				}
				ref[addr] = v
			case op < 860:
				for l := itemAddr; l < itemAddr+item; l += line {
					if stamped.Contains(l) {
						ref[l] = v
					}
				}
				stamped.SetItemValue(itemAddr, v)
				free.SetItemValue(itemAddr, v)
			case op < 920:
				if a, b := stamped.InvalidateItem(itemAddr), free.InvalidateItem(itemAddr); a != b {
					t.Fatalf("seed %d step %d: InvalidateItem dropped %d stamped, %d stamp-free", seed, step, a, b)
				}
			case op < 995:
				stamped.DowngradeItem(itemAddr)
				free.DowngradeItem(itemAddr)
			// The whole-cache operations are rare, so that dirty lines
			// live long enough to be evicted.
			case op < 997:
				a, b := stamped.FlushDirty(), free.FlushDirty()
				if a != b {
					t.Fatalf("seed %d step %d: FlushDirty cleaned %d stamped, %d stamp-free", seed, step, a, b)
				}
				flushed += a
			case op < 999:
				stamped.DowngradeAll()
				free.DowngradeAll()
			default:
				stamped.InvalidateAll()
				free.InvalidateAll()
			}
			for l := itemAddr; l < itemAddr+item; l += line {
				agree(step, l)
			}
			if a, b := stamped.DirtyLines(), free.DirtyLines(); a != b {
				t.Fatalf("seed %d step %d: DirtyLines = %d stamped, %d stamp-free", seed, step, a, b)
			}
			if a, b := stamped.Stats(), free.Stats(); a != b {
				t.Fatalf("seed %d step %d: Stats = %+v stamped, %+v stamp-free", seed, step, a, b)
			}
			if step%1000 == 999 {
				for s := uint64(0); s < numSectors*12/8; s++ {
					for l := uint64(0); l < linesUsed; l++ {
						agree(step, s*sector+l*line)
					}
				}
			}
		}
		// The sequence must have reached every path it is meant to test.
		st := stamped.Stats()
		if hits == 0 || st.WriteHits == 0 || st.UpgradeMisses == 0 || st.Evictions == 0 ||
			st.Writebacks == 0 || st.Invalidations == 0 || flushed == 0 {
			t.Fatalf("seed %d: sequence missed a path: %+v, %d read hits, %d lines flushed", seed, st, hits, flushed)
		}
	}
}
