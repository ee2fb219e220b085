package am

import (
	"testing"
	"testing/quick"

	"coma/internal/config"
	"coma/internal/proto"
)

func newAM() (*AM, config.Arch) {
	arch := config.KSR1(16)
	return New(arch, 3), arch
}

func TestUnallocatedIsInvalid(t *testing.T) {
	a, _ := newAM()
	if st := a.State(42); st != proto.Invalid {
		t.Fatalf("state = %v, want Invalid", st)
	}
	if a.HasFrame(0) {
		t.Fatal("frame reported for untouched page")
	}
	slot := a.Slot(42)
	if slot.State != proto.Invalid || slot.Partner != proto.None {
		t.Fatalf("slot = %+v", slot)
	}
}

// TestAllocFrameStartsClean: a frame's slots, allocated on its first use
// or reused after a drop, all start Invalid with no partner.
func TestAllocFrameStartsClean(t *testing.T) {
	a, arch := newAM()
	clean := Slot{State: proto.Invalid, Partner: proto.None}
	first := arch.FirstItem(5)
	for round := 0; round < 2; round++ {
		a.AllocFrame(5, false, int64(round))
		for i := 0; i < arch.ItemsPerPage(); i++ {
			if got := a.Slot(first + proto.ItemID(i)); got != clean {
				t.Fatalf("round %d: item %d slot = %+v, want %+v", round, i, got, clean)
			}
		}
		a.Set(first, Slot{State: proto.Shared, Value: 9, Partner: proto.None})
		a.DropFrame(5)
	}
}

func TestAllocSetAndRead(t *testing.T) {
	a, arch := newAM()
	a.AllocFrame(0, false, 1)
	item := proto.ItemID(5)
	a.Set(item, Slot{State: proto.Exclusive, Value: 99, Partner: proto.None})
	if st := a.State(item); st != proto.Exclusive {
		t.Fatalf("state = %v", st)
	}
	if v := a.Slot(item).Value; v != 99 {
		t.Fatalf("value = %d", v)
	}
	// Other items of the page are Invalid ("contents filled as needed,
	// one item at a time").
	if st := a.State(item + 1); st != proto.Invalid {
		t.Fatalf("neighbour state = %v", st)
	}
	if a.AllocatedFrames() != 1 {
		t.Fatalf("allocated = %d", a.AllocatedFrames())
	}
	_ = arch
}

func TestSetWithoutFramePanics(t *testing.T) {
	a, _ := newAM()
	defer func() {
		if recover() == nil {
			t.Error("Set without frame did not panic")
		}
	}()
	a.Set(0, Slot{State: proto.Shared})
}

func TestDoubleAllocPanics(t *testing.T) {
	a, _ := newAM()
	a.AllocFrame(7, false, 1)
	defer func() {
		if recover() == nil {
			t.Error("double alloc did not panic")
		}
	}()
	a.AllocFrame(7, false, 2)
}

func TestModifiedItemsTracking(t *testing.T) {
	a, _ := newAM()
	a.AllocFrame(0, false, 1)
	a.AllocFrame(1, false, 1)
	a.Set(1, Slot{State: proto.Exclusive, Value: 1})
	a.Set(2, Slot{State: proto.MasterShared, Value: 2})
	a.Set(130, Slot{State: proto.Shared, Value: 3})
	got := a.ModifiedItems(nil)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("modified = %v, want [1 2]", got)
	}
	// Downgrades must leave the tree.
	a.SetState(1, proto.PreCommit1)
	got = a.ModifiedItems(nil)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("modified after downgrade = %v, want [2]", got)
	}
}

func TestModifiedTrackingThroughForEach(t *testing.T) {
	a, _ := newAM()
	a.AllocFrame(0, false, 1)
	a.Set(0, Slot{State: proto.Exclusive, Value: 1})
	a.ForEachAllocated(func(item proto.ItemID, s *Slot) {
		if s.State == proto.Exclusive {
			s.State = proto.Invalid
		}
	})
	if got := a.ModifiedItems(nil); len(got) != 0 {
		t.Fatalf("modified = %v after ForEach downgrade", got)
	}
}

func TestVictimSelectionSkipsIrreplaceable(t *testing.T) {
	arch := config.KSR1(16)
	a := New(arch, 0)
	sets := arch.AMSets()
	// Three pages in the same set; the middle one is pinned.
	p0, p1, p2 := proto.PageID(0), proto.PageID(sets), proto.PageID(2*sets)
	a.AllocFrame(p0, false, 10)
	a.AllocFrame(p1, true, 5)
	a.AllocFrame(p2, false, 20)
	v, ok := a.VictimPage(proto.PageID(3 * sets))
	if !ok || v != p0 {
		t.Fatalf("victim = (%v,%v), want (page0,true) — oldest replaceable", v, ok)
	}
	a.Touch(p0, 30)
	v, _ = a.VictimPage(proto.PageID(3 * sets))
	if v != p2 {
		t.Fatalf("victim after touch = %v, want page2", v)
	}
}

func TestVictimNoneWhenAllPinned(t *testing.T) {
	arch := config.KSR1(16)
	a := New(arch, 0)
	sets := arch.AMSets()
	for w := 0; w < arch.AMWays; w++ {
		a.AllocFrame(proto.PageID(w*sets), true, int64(w))
	}
	if a.FreeWay(proto.PageID(99 * sets)) {
		t.Fatal("full set reported a free way")
	}
	if _, ok := a.VictimPage(proto.PageID(99 * sets)); ok {
		t.Fatal("victim found among irreplaceable frames")
	}
}

func TestPinnedItemsAndDropFrame(t *testing.T) {
	a, arch := newAM()
	a.AllocFrame(0, false, 1)
	a.Set(0, Slot{State: proto.Shared})
	a.Set(1, Slot{State: proto.MasterShared})
	a.Set(2, Slot{State: proto.InvCK1, Partner: 4})
	pinned := a.PinnedItems(0)
	if len(pinned) != 2 || pinned[0] != 1 || pinned[1] != 2 {
		t.Fatalf("pinned = %v, want [1 2]", pinned)
	}
	// Dropping with pinned items must panic (protocol bug guard).
	func() {
		defer func() {
			if recover() == nil {
				t.Error("DropFrame with pinned items did not panic")
			}
		}()
		a.DropFrame(0)
	}()
	a.SetState(1, proto.Shared)
	a.SetState(2, proto.Invalid)
	a.DropFrame(0)
	if a.HasFrame(0) || a.AllocatedFrames() != 0 {
		t.Fatal("frame survived drop")
	}
	_ = arch
}

func TestStateCounts(t *testing.T) {
	a, _ := newAM()
	a.AllocFrame(0, false, 1)
	a.Set(0, Slot{State: proto.SharedCK1})
	a.Set(1, Slot{State: proto.SharedCK2})
	a.Set(2, Slot{State: proto.Exclusive})
	counts := a.StateCounts()
	if counts[proto.SharedCK1] != 1 || counts[proto.SharedCK2] != 1 || counts[proto.Exclusive] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if counts[proto.Invalid] != 125 {
		t.Fatalf("invalid slots = %d, want 125 (rest of the page)", counts[proto.Invalid])
	}
}

func TestClearLosesEverything(t *testing.T) {
	a, _ := newAM()
	a.AllocFrame(0, true, 1)
	a.Set(0, Slot{State: proto.Exclusive, Value: 7})
	a.Clear()
	if a.AllocatedFrames() != 0 || a.State(0) != proto.Invalid {
		t.Fatal("Clear left state behind")
	}
	// The AM must be reusable after a transient failure.
	a.AllocFrame(0, false, 2)
	a.Set(0, Slot{State: proto.Shared, Value: 1})
	if a.State(0) != proto.Shared {
		t.Fatal("AM unusable after Clear")
	}
}

func TestPeakFrameAccounting(t *testing.T) {
	a, arch := newAM()
	sets := arch.AMSets()
	for i := 0; i < 5; i++ {
		a.AllocFrame(proto.PageID(i*sets), false, int64(i))
	}
	a.DropFrame(proto.PageID(0))
	if a.Stats().PeakFrames != 5 {
		t.Fatalf("peak = %d, want 5", a.Stats().PeakFrames)
	}
	if a.AllocatedFrames() != 4 {
		t.Fatalf("allocated = %d, want 4", a.AllocatedFrames())
	}
}

// Property: Set then Slot round-trips arbitrary slot contents for
// arbitrary in-page items.
func TestSlotRoundTripProperty(t *testing.T) {
	arch := config.KSR1(16)
	f := func(itemIdx uint8, value uint64, partner uint8, stRaw uint8) bool {
		a := New(arch, 1)
		a.AllocFrame(0, false, 1)
		item := proto.ItemID(int(itemIdx) % arch.ItemsPerPage())
		st := proto.State(stRaw % 10)
		want := Slot{State: st, Value: value, Partner: proto.NodeID(partner % 16)}
		a.Set(item, want)
		got := a.Slot(item)
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllocatedPagesDeterministicOrder(t *testing.T) {
	a, arch := newAM()
	sets := arch.AMSets()
	pages := []proto.PageID{proto.PageID(2 * sets), proto.PageID(1), proto.PageID(sets)}
	for i, p := range pages {
		a.AllocFrame(p, false, int64(i))
	}
	first := a.AllocatedPages()
	second := a.AllocatedPages()
	if len(first) != 3 {
		t.Fatalf("pages = %v", first)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("AllocatedPages order not stable")
		}
	}
}

// TestNewCarvesFramesFromOneBlock: every set's ways are carved from one
// frame array, so building a machine allocates a few blocks per AM
// rather than one per set.
func TestNewCarvesFramesFromOneBlock(t *testing.T) {
	arch := config.KSR1(16)
	if allocs := testing.AllocsPerRun(10, func() { New(arch, 3) }); allocs > 4 {
		t.Fatalf("New = %v allocs, want at most 4", allocs)
	}
}

// TestCommitScanCostFormula: a scan tests each allocated frame once and
// each of its 128 items once, split across the KSR1's four controllers,
// multiplying before it divides (4 frames cost 4*129/4 = 129, not
// 4*(129/4) = 128).
func TestCommitScanCostFormula(t *testing.T) {
	a, _ := newAM()
	if got := a.CommitScanCost(); got != 0 {
		t.Fatalf("empty AM scan = %d, want 0", got)
	}
	for p := range proto.PageID(4) {
		a.AllocFrame(p, false, 0)
	}
	if got, want := a.CommitScanCost(), int64(4*(1+128)/4); got != want {
		t.Fatalf("commit cost = %d, want %d", got, want)
	}
}
