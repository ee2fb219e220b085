package am

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"coma/internal/config"
	"coma/internal/proto"
)

// TestSlotIs16Bytes guards the slot layout: ordering the fields widest
// first packs the 11 bytes of a slot into 16 instead of 24, so a chunk
// of chunkItems slots is 128 bytes.
func TestSlotIs16Bytes(t *testing.T) {
	if size := unsafe.Sizeof(Slot{}); size != 16 {
		t.Fatalf("Slot is %d bytes, want 16", size)
	}
}

// TestSparseFrameCost bounds what a frame with one written item costs:
// its chunk references and one chunk, plus the slack of the doubling
// blocks they are carved from. A full array of the paper's 128 slots
// would cost 2 KiB per frame.
func TestSparseFrameCost(t *testing.T) {
	const frames = 64
	arch := config.KSR1(16)
	a := New(arch, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for p := range proto.PageID(frames) {
		a.AllocFrame(p, false, 0)
		a.Set(arch.FirstItem(p)+5, Slot{State: proto.Exclusive, Value: 1, Partner: proto.None})
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(a)
	if per := (after.TotalAlloc - before.TotalAlloc) / frames; per > 768 {
		t.Fatalf("a sparse frame costs %d bytes, want at most 768", per)
	}
}

// smallPageArch returns a KSR1-like machine whose pages hold the given
// number of items, in an AM of four sets of 16 ways.
func smallPageArch(items int) config.Arch {
	arch := config.KSR1(16)
	arch.PageSize = items * arch.ItemSize
	arch.AMSize = 4 * arch.AMWays * arch.PageSize
	return arch
}

// refArches are the geometries the reference model drives: the paper's
// 128-item pages, and pages whose last chunk is partial (20 items) or
// the only, partial one (3 items).
func refArches() []config.Arch {
	return []config.Arch{config.KSR1(16), smallPageArch(20), smallPageArch(3)}
}

// refFrame is the reference model's view of one allocated page.
type refFrame struct {
	way           int // way within the page's set
	irreplaceable bool
	evicting      bool
	lastUse       int64
	slots         []Slot
}

// refAM mirrors an AM with a plain map-keyed model over pages that
// crowd three sets past their ways.
type refAM struct {
	tb     testing.TB
	arch   config.Arch
	a      *AM
	sets   int
	ways   int
	per    int
	pages  []proto.PageID
	frames map[proto.PageID]*refFrame
	// held records, per way (set*ways+way), the last page the way held,
	// whether that page ever held a written item, and what released it;
	// cover counts the reuses and reads the model has exercised.
	held  map[int]wayHistory
	cover map[string]int
}

type wayHistory struct {
	page     proto.PageID
	written  bool
	released string
}

func newRefAM(tb testing.TB, arch config.Arch) *refAM {
	r := &refAM{
		tb:     tb,
		arch:   arch,
		a:      New(arch, 3),
		sets:   arch.AMSets(),
		ways:   arch.AMWays,
		per:    arch.ItemsPerPage(),
		frames: map[proto.PageID]*refFrame{},
		held:   map[int]wayHistory{},
		cover:  map[string]int{},
	}
	for s := 0; s < 3; s++ {
		for k := 0; k < r.ways+4; k++ {
			r.pages = append(r.pages, proto.PageID(s+k*r.sets))
		}
	}
	return r
}

func (r *refAM) setOf(p proto.PageID) int { return int(p) % r.sets }

func (r *refAM) freeWay(set int) int {
	used := make([]bool, r.ways)
	for p, f := range r.frames {
		if r.setOf(p) == set {
			used[f.way] = true
		}
	}
	return slices.Index(used, false)
}

// allocated returns the allocated pages in the AM's tag order.
func (r *refAM) allocated() []proto.PageID {
	alloc := make([]proto.PageID, 0, len(r.frames))
	for p := range r.frames {
		alloc = append(alloc, p)
	}
	slices.SortFunc(alloc, func(p, q proto.PageID) int {
		return cmp.Or(cmp.Compare(r.setOf(p), r.setOf(q)), cmp.Compare(r.frames[p].way, r.frames[q].way))
	})
	return alloc
}

func (r *refAM) release(p proto.PageID, how string) {
	f := r.frames[p]
	key := r.setOf(p)*r.ways + f.way
	h := r.held[key]
	h.released = how
	for _, s := range f.slots {
		h.written = h.written || s != cleanSlot
	}
	r.held[key] = h
	delete(r.frames, p)
}

// step applies one operation drawn from intN (which returns a value in
// [0, n)) to both the AM and the model and returns its name; it is ""
// when the drawn operation does not apply.
func (r *refAM) step(intN func(int) int) string {
	a, arch := r.a, r.arch
	p := r.pages[intN(len(r.pages))]
	f := r.frames[p]
	now := int64(intN(50)) // coarse clock: LRU ties fall to the page order
	item := func() (proto.ItemID, int) {
		i := intN(r.per)
		return arch.FirstItem(p) + proto.ItemID(i), i
	}
	switch op := intN(100); {
	case op < 25:
		if f != nil {
			return ""
		}
		w := r.freeWay(r.setOf(p))
		if got := a.FreeWay(p); got != (w >= 0) {
			r.tb.Fatalf("FreeWay(%d) = %v, want %v", p, got, w >= 0)
		}
		if w < 0 {
			return ""
		}
		key := r.setOf(p)*r.ways + w
		if h, ok := r.held[key]; ok && h.page != p && h.written {
			r.cover["way reused after "+h.released]++
		}
		r.held[key] = wayHistory{page: p}
		irr := intN(4) == 0
		a.AllocFrame(p, irr, now)
		r.frames[p] = &refFrame{way: w, irreplaceable: irr, lastUse: now, slots: slices.Repeat([]Slot{cleanSlot}, r.per)}
		return "AllocFrame"
	case op < 37:
		if f == nil {
			return ""
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
		r.release(p, "DropFrame")
		return "DropFrame"
	case op < 41:
		if f == nil {
			return ""
		}
		a.MarkIrreplaceable(p)
		f.irreplaceable = true
		return "MarkIrreplaceable"
	case op < 47:
		if f == nil {
			return ""
		}
		v := intN(2) == 0
		a.SetEvicting(p, v)
		f.evicting = v
		return "SetEvicting"
	case op < 53:
		a.Touch(p, now)
		if f != nil {
			f.lastUse = now
		}
		return "Touch"
	case op < 54:
		a.Clear()
		for q := range r.frames {
			r.release(q, "Clear")
		}
		return "Clear"
	case op < 58:
		r.scan(uint64(intN(1 << 16)))
		return "ForEachAllocated"
	case op < 70:
		if f == nil {
			return ""
		}
		it, i := item()
		st := proto.State(intN(int(proto.NumStates)))
		a.SetState(it, st)
		f.slots[i].State = st
		return "SetState"
	case op < 76:
		if f == nil {
			return ""
		}
		it, i := item()
		partner := proto.NodeID(intN(17) - 1)
		a.SetPartner(it, partner)
		f.slots[i].Partner = partner
		return "SetPartner"
	default:
		if f == nil {
			return ""
		}
		it, i := item()
		s := Slot{
			Value:   uint64(intN(1 << 16)),
			Partner: proto.NodeID(intN(17) - 1),
			State:   proto.State(intN(int(proto.NumStates))),
		}
		a.Set(it, s)
		f.slots[i] = s
		return "Set"
	}
}

// scan runs a ForEachAllocated pass that must visit every item of every
// allocated frame in tag and item order, and rewrites the state and
// value of every slot that is not clean (so certainly materialised), as
// the commit and recovery scans do.
func (r *refAM) scan(salt uint64) {
	rewrite := func(s *Slot) {
		s.State = (s.State + 1) % proto.NumStates
		s.Value ^= salt
	}
	type visit struct {
		item proto.ItemID
		slot Slot
	}
	var want []visit
	for _, p := range r.allocated() {
		f := r.frames[p]
		for i := range f.slots {
			want = append(want, visit{r.arch.FirstItem(p) + proto.ItemID(i), f.slots[i]})
			if f.slots[i] != cleanSlot {
				rewrite(&f.slots[i])
				r.cover["scan write"]++
			}
		}
	}
	var got []visit
	r.a.ForEachAllocated(func(item proto.ItemID, s *Slot) {
		got = append(got, visit{item, *s})
		if *s != cleanSlot {
			rewrite(s)
		}
	})
	if !slices.Equal(got, want) {
		r.tb.Fatalf("ForEachAllocated visited %d slots differing from the model's %d", len(got), len(want))
	}
}

// check compares every observable of the AM with the model: HasFrame,
// Irreplaceable, Evicting, every slot, AllocatedPages, ModifiedItems,
// PinnedItems and the VictimPages order of every set.
func (r *refAM) check() {
	a, arch := r.a, r.arch
	for _, p := range r.pages {
		f := r.frames[p]
		if got := a.HasFrame(p); got != (f != nil) {
			r.tb.Fatalf("HasFrame(%d) = %v, want %v", p, got, f != nil)
		}
		if got, want := a.Irreplaceable(p), f != nil && f.irreplaceable; got != want {
			r.tb.Fatalf("Irreplaceable(%d) = %v, want %v", p, got, want)
		}
		if got, want := a.Evicting(p), f != nil && f.evicting; got != want {
			r.tb.Fatalf("Evicting(%d) = %v, want %v", p, got, want)
		}
		first := arch.FirstItem(p)
		var pinned []proto.ItemID
		for i := 0; i < r.per; i++ {
			want := cleanSlot
			if f != nil {
				want = f.slots[i]
				if want == cleanSlot {
					r.cover["clean read on an allocated frame"]++
				}
				if !want.State.Replaceable() {
					pinned = append(pinned, first+proto.ItemID(i))
				}
			}
			if got := a.Slot(first + proto.ItemID(i)); got != want {
				r.tb.Fatalf("Slot(%d) = %+v, want %+v", first+proto.ItemID(i), got, want)
			}
			if got := a.State(first + proto.ItemID(i)); got != want.State {
				r.tb.Fatalf("State(%d) = %v, want %v", first+proto.ItemID(i), got, want.State)
			}
		}
		if got := a.PinnedItems(p); !slices.Equal(got, pinned) {
			r.tb.Fatalf("PinnedItems(%d) = %v, want %v", p, got, pinned)
		}
	}
	alloc := r.allocated()
	if got := a.AllocatedPages(); !slices.Equal(got, alloc) {
		r.tb.Fatalf("AllocatedPages = %v, want %v", got, alloc)
	}
	var modified []proto.ItemID
	for _, p := range alloc {
		for i, s := range r.frames[p].slots {
			if s.State.Modified() {
				modified = append(modified, arch.FirstItem(p)+proto.ItemID(i))
			}
		}
	}
	if got := a.ModifiedItems(nil); !slices.Equal(got, modified) {
		r.tb.Fatalf("ModifiedItems = %v, want %v", got, modified)
	}
	for s := 0; s < 3; s++ {
		var victims []proto.PageID
		for _, p := range alloc {
			if f := r.frames[p]; r.setOf(p) == s && !f.irreplaceable && !f.evicting {
				victims = append(victims, p)
			}
		}
		slices.SortFunc(victims, func(p, q proto.PageID) int {
			return cmp.Or(cmp.Compare(r.frames[p].lastUse, r.frames[q].lastUse), cmp.Compare(p, q))
		})
		if got := a.VictimPages(proto.PageID(s)); !slices.Equal(got, victims) {
			r.tb.Fatalf("VictimPages(set %d) = %v, want %v", s, got, victims)
		}
	}
}

// TestTagLookupMatchesReference drives an AM and the reference model
// through the same random sequence of allocations, drops, pins,
// evicting marks, wipes, slot writes and writing scans, for pages of
// 128 items and for pages whose last chunk is partial. After every step
// the two must agree on every observable. The run must have read
// never-written items of allocated frames, written materialised slots
// from a scan, and handed a way that held written items to another page
// after both a DropFrame and a Clear.
func TestTagLookupMatchesReference(t *testing.T) {
	for _, arch := range refArches() {
		t.Run(fmt.Sprintf("items=%d", arch.ItemsPerPage()), func(t *testing.T) {
			r := newRefAM(t, arch)
			rng := rand.New(rand.NewPCG(1, 2))
			for step := 0; step < 3000; step++ {
				if op := r.step(rng.IntN); op != "" {
					r.check()
				}
			}
			for _, c := range []string{"clean read on an allocated frame", "scan write",
				"way reused after DropFrame", "way reused after Clear"} {
				if r.cover[c] == 0 {
					t.Errorf("the run never covered %q", c)
				}
			}
		})
	}
}

// TestScanPanicsOnNeverWrittenSlot: a scan hands a never-written item
// over as a copy of the clean slot, so a callback that changes it would
// lose the write; the scan panics instead. Clean slots of a chunk that
// another item materialised are real and take writes.
func TestScanPanicsOnNeverWrittenSlot(t *testing.T) {
	a, arch := newAM()
	a.AllocFrame(0, false, 1)
	a.Set(0, Slot{State: proto.Exclusive, Value: 1, Partner: proto.None})
	a.ForEachAllocated(func(item proto.ItemID, s *Slot) {
		if item == 1 {
			s.Value = 7
		}
	})
	if got := a.Slot(1).Value; got != 7 {
		t.Fatalf("materialised clean slot took value %d, want 7", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("changing a never-written slot in a scan did not panic")
		}
	}()
	a.ForEachAllocated(func(item proto.ItemID, s *Slot) {
		if item == arch.FirstItem(0)+chunkItems {
			s.State = proto.Shared
		}
	})
}

// FuzzAMMatchesReference decodes its input into reference-model
// operations: the first byte picks the geometry, and every following
// draw takes one byte (two for ranges above 256) modulo its range.
func FuzzAMMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		arches := refArches()
		r := newRefAM(t, arches[int(data[0])%len(arches)])
		data = data[1:]
		intN := func(n int) int {
			v := 0
			for k := 0; k < 2 && len(data) > 0 && (k == 0 || n > 256); k++ {
				v = v<<8 | int(data[0])
				data = data[1:]
			}
			return v % n
		}
		for step := 0; step < 500 && len(data) > 0; step++ {
			if op := r.step(intN); op != "" {
				r.check()
			}
		}
	})
}
