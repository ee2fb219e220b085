package am

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"

	"coma/internal/config"
	"coma/internal/proto"
)

// TestSlotIs16Bytes guards the slot layout: slot arrays are most of a
// machine's live heap, and ordering the fields widest first packs the
// 11 bytes of a slot into 16 instead of 24.
func TestSlotIs16Bytes(t *testing.T) {
	if size := unsafe.Sizeof(Slot{}); size != 16 {
		t.Fatalf("Slot is %d bytes, want 16", size)
	}
}

// refFrame is the reference model's view of one allocated page.
type refFrame struct {
	way           int // way within the page's set
	irreplaceable bool
	evicting      bool
	lastUse       int64
	slots         []Slot
}

// TestTagLookupMatchesReference drives an AM and a plain map-keyed
// reference model through the same random sequence of allocations,
// drops, pins, evicting marks, wipes and slot writes over pages that
// crowd three sets past their ways. After every step the two must agree
// on HasFrame, Irreplaceable, Evicting, every slot, AllocatedPages,
// ModifiedItems and the VictimPages order of every set.
func TestTagLookupMatchesReference(t *testing.T) {
	arch := config.KSR1(16)
	a := New(arch, 3)
	sets, ways, per := arch.AMSets(), arch.AMWays, arch.ItemsPerPage()
	setOf := func(p proto.PageID) int { return int(p) % sets }

	var pages []proto.PageID
	for s := 0; s < 3; s++ {
		for k := 0; k < ways+4; k++ {
			pages = append(pages, proto.PageID(s+k*sets))
		}
	}
	ref := map[proto.PageID]*refFrame{}
	freeWay := func(set int) int {
		used := make([]bool, ways)
		for p, f := range ref {
			if setOf(p) == set {
				used[f.way] = true
			}
		}
		return slices.Index(used, false)
	}
	clean := Slot{State: proto.Invalid, Partner: proto.None}

	check := func(step int, op string) {
		t.Helper()
		for _, p := range pages {
			f := ref[p]
			if got := a.HasFrame(p); got != (f != nil) {
				t.Fatalf("step %d (%s): HasFrame(%d) = %v, want %v", step, op, p, got, f != nil)
			}
			if got, want := a.Irreplaceable(p), f != nil && f.irreplaceable; got != want {
				t.Fatalf("step %d (%s): Irreplaceable(%d) = %v, want %v", step, op, p, got, want)
			}
			if got, want := a.Evicting(p), f != nil && f.evicting; got != want {
				t.Fatalf("step %d (%s): Evicting(%d) = %v, want %v", step, op, p, got, want)
			}
			first := arch.FirstItem(p)
			for i := 0; i < per; i++ {
				want := clean
				if f != nil {
					want = f.slots[i]
				}
				if got := a.Slot(first + proto.ItemID(i)); got != want {
					t.Fatalf("step %d (%s): Slot(%d) = %+v, want %+v", step, op, first+proto.ItemID(i), got, want)
				}
				if got := a.State(first + proto.ItemID(i)); got != want.State {
					t.Fatalf("step %d (%s): State(%d) = %v, want %v", step, op, first+proto.ItemID(i), got, want.State)
				}
			}
		}
		alloc := make([]proto.PageID, 0, len(ref))
		for p := range ref {
			alloc = append(alloc, p)
		}
		slices.SortFunc(alloc, func(p, q proto.PageID) int {
			return cmp.Or(cmp.Compare(setOf(p), setOf(q)), cmp.Compare(ref[p].way, ref[q].way))
		})
		if got := a.AllocatedPages(); !slices.Equal(got, alloc) {
			t.Fatalf("step %d (%s): AllocatedPages = %v, want %v", step, op, got, alloc)
		}
		var modified []proto.ItemID
		for _, p := range alloc {
			for i, s := range ref[p].slots {
				if s.State.Modified() {
					modified = append(modified, arch.FirstItem(p)+proto.ItemID(i))
				}
			}
		}
		if got := a.ModifiedItems(nil); !slices.Equal(got, modified) {
			t.Fatalf("step %d (%s): ModifiedItems = %v, want %v", step, op, got, modified)
		}
		for s := 0; s < 3; s++ {
			var victims []proto.PageID
			for _, p := range alloc {
				if f := ref[p]; setOf(p) == s && !f.irreplaceable && !f.evicting {
					victims = append(victims, p)
				}
			}
			slices.SortFunc(victims, func(p, q proto.PageID) int {
				return cmp.Or(cmp.Compare(ref[p].lastUse, ref[q].lastUse), cmp.Compare(p, q))
			})
			if got := a.VictimPages(proto.PageID(s)); !slices.Equal(got, victims) {
				t.Fatalf("step %d (%s): VictimPages(set %d) = %v, want %v", step, op, s, got, victims)
			}
		}
	}

	rng := rand.New(rand.NewPCG(1, 2))
	for step := 0; step < 3000; step++ {
		p := pages[rng.IntN(len(pages))]
		f := ref[p]
		now := int64(rng.IntN(50)) // coarse clock: LRU ties fall to the page order
		var op string
		switch r := rng.IntN(100); {
		case r < 30:
			op = "AllocFrame"
			if f != nil {
				continue
			}
			w := freeWay(setOf(p))
			if got := a.FreeWay(p); got != (w >= 0) {
				t.Fatalf("step %d: FreeWay(%d) = %v, want %v", step, p, got, w >= 0)
			}
			if w < 0 {
				continue
			}
			irr := rng.IntN(4) == 0
			a.AllocFrame(p, irr, now)
			ref[p] = &refFrame{way: w, irreplaceable: irr, lastUse: now, slots: slices.Repeat([]Slot{clean}, per)}
		case r < 45:
			op = "DropFrame"
			if f == nil {
				continue
			}
			for i, s := range f.slots {
				if !s.State.Replaceable() {
					// Demote the pinned items first, as a replacement's
					// injections do.
					a.SetState(arch.FirstItem(p)+proto.ItemID(i), proto.Invalid)
					f.slots[i].State = proto.Invalid
				}
			}
			a.DropFrame(p)
			delete(ref, p)
		case r < 50:
			op = "MarkIrreplaceable"
			if f == nil {
				continue
			}
			a.MarkIrreplaceable(p)
			f.irreplaceable = true
		case r < 58:
			op = "SetEvicting"
			if f == nil {
				continue
			}
			v := rng.IntN(2) == 0
			a.SetEvicting(p, v)
			f.evicting = v
		case r < 65:
			op = "Touch"
			a.Touch(p, now)
			if f != nil {
				f.lastUse = now
			}
		case r < 66:
			op = "Clear"
			a.Clear()
			clear(ref)
		default:
			op = "Set"
			if f == nil {
				continue
			}
			i := rng.IntN(per)
			s := Slot{
				Value:   rng.Uint64(),
				Partner: proto.NodeID(rng.IntN(17) - 1),
				State:   proto.State(rng.IntN(int(proto.NumStates))),
			}
			a.Set(arch.FirstItem(p)+proto.ItemID(i), s)
			f.slots[i] = s
		}
		check(step, op)
	}
}
