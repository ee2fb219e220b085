package am

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"coma/internal/config"
	"coma/internal/proto"
)

// TestSlotIs16Bytes guards the slot layout: ordering the fields widest
// first packs the 15 bytes of a slot and its table key into 16, where
// State first would pad them to 24.
func TestSlotIs16Bytes(t *testing.T) {
	if size := unsafe.Sizeof(Slot{}); size != 16 {
		t.Fatalf("Slot is %d bytes, want 16", size)
	}
}

// TestSparseFrameCost bounds what a frame with one written item costs
// when every frame of an AM has one: its share of the slot table, which
// is half full. Its written-bitmap is part of the AM New builds. A full
// array of the paper's 128 slots would cost 2 KiB per frame.
func TestSparseFrameCost(t *testing.T) {
	arch := config.KSR1(16)
	frames := arch.AMFrames()
	a := New(arch, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for p := range proto.PageID(frames) {
		a.AllocFrame(p, false, 0)
		a.Set(arch.FirstItem(p)+5, Slot{State: proto.Exclusive, Value: 1, Partner: proto.None})
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(a)
	if per := (after.TotalAlloc - before.TotalAlloc) / uint64(frames); per > 48 {
		t.Fatalf("a sparse frame costs %d bytes, want at most 48", per)
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
// 128-item pages, whose bitmap is two full words, and pages whose one
// bitmap word is partly used (20 and 3 items).
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
	// written marks the items written since the page was allocated:
	// exactly those a scan visits.
	written []bool
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
	h.written = slices.Contains(f.written, true)
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
		r.frames[p] = &refFrame{way: w, irreplaceable: irr, lastUse: now,
			slots: slices.Repeat([]Slot{cleanSlot}, r.per), written: make([]bool, r.per)}
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
				f.written[i] = true
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
		f.written[i] = true
		return "SetState"
	case op < 76:
		if f == nil {
			return ""
		}
		it, i := item()
		partner := proto.NodeID(intN(17) - 1)
		a.SetPartner(it, partner)
		f.slots[i].Partner = partner
		f.written[i] = true
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
		f.written[i] = true
		return "Set"
	}
}

// Scan rewrites: the commit and recovery scans' state maps, and a
// rewrite that moves every visited slot to the next state and a salted
// value. scan picks one by the salt.
var scanRewrites = [...]struct {
	name    string
	rewrite func(s *Slot, salt uint64)
}{
	{"scan write", func(s *Slot, salt uint64) {
		s.State = (s.State + 1) % proto.NumStates
		s.Value ^= salt
	}},
	{"commit scan", func(s *Slot, _ uint64) {
		switch s.State {
		case proto.PreCommit1:
			s.State = proto.SharedCK1
		case proto.PreCommit2:
			s.State = proto.SharedCK2
		case proto.InvCK1, proto.InvCK2:
			s.State, s.Partner = proto.Invalid, proto.None
		}
	}},
	{"recovery scan", func(s *Slot, _ uint64) {
		switch s.State {
		case proto.Shared, proto.Exclusive, proto.MasterShared, proto.PreCommit1, proto.PreCommit2:
			s.State, s.Partner = proto.Invalid, proto.None
		case proto.InvCK1:
			s.State = proto.SharedCK1
		case proto.InvCK2:
			s.State = proto.SharedCK2
		}
	}},
}

// scan runs a ForEachAllocated pass that must visit exactly the model's
// written items, in tag and item order, applying one of scanRewrites to
// each. The model applies it to every item of every allocated frame, as
// a full walk would; a never-written item holds the clean slot, which
// no rewrite but the salted one changes, and that one counts as a write.
func (r *refAM) scan(salt uint64) {
	sr := scanRewrites[salt%uint64(len(scanRewrites))]
	type visit struct {
		item proto.ItemID
		slot Slot
	}
	var want []visit
	for _, p := range r.allocated() {
		f := r.frames[p]
		for i := range f.slots {
			if f.written[i] {
				want = append(want, visit{r.arch.FirstItem(p) + proto.ItemID(i), f.slots[i]})
			} else if sr.name == "scan write" {
				continue
			}
			before := f.slots[i]
			sr.rewrite(&f.slots[i], salt)
			if f.slots[i] != before {
				if !f.written[i] {
					r.tb.Fatalf("%s changed never-written item %d", sr.name, r.arch.FirstItem(p)+proto.ItemID(i))
				}
				r.cover[sr.name]++
			}
		}
	}
	var got []visit
	r.a.ForEachAllocated(func(item proto.ItemID, s *Slot) {
		v := *s
		v.key = 0
		got = append(got, visit{item, v})
		sr.rewrite(s, salt)
	})
	if !slices.Equal(got, want) {
		r.tb.Fatalf("%s visited %d slots differing from the model's %d written ones", sr.name, len(got), len(want))
	}
}

// check compares every observable of the AM with the model: HasFrame,
// Irreplaceable, Evicting, every slot, AllocatedPages, ModifiedItems,
// PinnedItems, StateCounts and the VictimPages order of every set.
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
	counts := map[proto.State]int{}
	for _, f := range r.frames {
		for _, s := range f.slots {
			counts[s.State]++
		}
	}
	if got := a.StateCounts(); !maps.Equal(got, counts) {
		r.tb.Fatalf("StateCounts = %v, want %v", got, counts)
	}
	if err := a.checkTable(); err != nil {
		r.tb.Fatal(err)
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
// evicting marks, wipes, slot writes and writing, commit and recovery
// scans, for pages of 128, 20 and 3 items. After every step the two
// must agree on every observable. The run must have read never-written
// items of allocated frames, changed slots in each kind of scan, and
// handed a way that held written items to another page after both a
// DropFrame and a Clear.
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
				"commit scan", "recovery scan", "way reused after DropFrame", "way reused after Clear"} {
				if r.cover[c] == 0 {
					t.Errorf("the run never covered %q", c)
				}
			}
		})
	}
}

// checkTable audits the slot table against the written-bitmaps: every
// record belongs to a written item of an allocated frame and is found
// from its home, every written item has a record, and used counts the
// records.
func (a *AM) checkTable() error {
	records := 0
	for i, s := range a.table {
		if s.key == 0 {
			continue
		}
		records++
		item := s.key - 1
		w := a.way(proto.PageID(int(item) / a.itemsPerPage))
		if w < 0 {
			return fmt.Errorf("record %d holds item %d of an unallocated page", i, item)
		}
		k := int(item) % a.itemsPerPage
		if a.bitsOf(w)[k/64]&(1<<(k%64)) == 0 {
			return fmt.Errorf("record %d holds item %d, which is not marked written", i, item)
		}
		if j := a.find(item); j != i {
			return fmt.Errorf("item %d is at record %d but found at %d", item, i, j)
		}
	}
	marked := 0
	for w, page := range a.tags {
		if page == proto.NoPage {
			if slices.ContainsFunc(a.bitsOf(w), func(word uint64) bool { return word != 0 }) {
				return fmt.Errorf("free way %d has written items", w)
			}
			continue
		}
		a.forWritten(w, func(proto.ItemID) { marked++ })
	}
	if records != a.used || marked != a.used {
		return fmt.Errorf("table holds %d records and the bitmaps mark %d, used = %d", records, marked, a.used)
	}
	return nil
}

// TestTableGrowsAndShrinks writes 20 items in every frame of an AM, so
// the table doubles four times past its first size, then drops every
// other frame and wipes the AM, checking every item's slot and the
// table after each stage.
func TestTableGrowsAndShrinks(t *testing.T) {
	a, arch := newAM()
	frames := proto.PageID(arch.AMFrames())
	slot := func(p proto.PageID, i int) Slot {
		return Slot{State: proto.SharedCK1, Value: uint64(p)<<8 | uint64(i), Partner: proto.NodeID(i % 16)}
	}
	verify := func(stage string, live func(p proto.PageID) bool) {
		t.Helper()
		if err := a.checkTable(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		for p := range frames {
			for i := range 128 {
				want := cleanSlot
				if live(p) && i%6 == 0 && i < 120 {
					want = slot(p, i)
				}
				if got := a.Slot(arch.FirstItem(p) + proto.ItemID(i)); got != want {
					t.Fatalf("%s: Slot(page %d item %d) = %+v, want %+v", stage, p, i, got, want)
				}
			}
		}
	}
	for p := range frames {
		a.AllocFrame(p, false, 0)
		for i := 0; i < 120; i += 6 {
			a.Set(arch.FirstItem(p)+proto.ItemID(i), slot(p, i))
		}
	}
	if want := firstTable << 4; len(a.table) != want {
		t.Fatalf("table has %d records for %d items, want %d", len(a.table), a.used, want)
	}
	verify("filled", func(proto.PageID) bool { return true })
	for p := proto.PageID(0); p < frames; p += 2 {
		for i := 0; i < 120; i += 6 {
			a.SetState(arch.FirstItem(p)+proto.ItemID(i), proto.Shared)
			a.SetPartner(arch.FirstItem(p)+proto.ItemID(i), proto.None)
		}
		a.DropFrame(p)
	}
	verify("half dropped", func(p proto.PageID) bool { return p%2 == 1 })
	size := len(a.table)
	a.Clear()
	if len(a.table) != size {
		t.Fatalf("Clear resized the table from %d to %d records", size, len(a.table))
	}
	verify("cleared", func(proto.PageID) bool { return false })
}

// TestScanMayReplaceWholeSlot: a scan visits only written items, and a
// callback that replaces the whole slot it is handed, as a literal
// without the table key, leaves every record findable.
func TestScanMayReplaceWholeSlot(t *testing.T) {
	a, arch := newAM()
	a.AllocFrame(0, false, 1)
	first := arch.FirstItem(0)
	for i := range proto.ItemID(100) {
		a.Set(first+i, Slot{State: proto.Exclusive, Value: uint64(i), Partner: proto.None})
	}
	visits := 0
	a.ForEachAllocated(func(item proto.ItemID, s *Slot) {
		visits++
		*s = Slot{State: proto.Shared, Value: s.Value + 1, Partner: proto.None}
	})
	if visits != 100 {
		t.Fatalf("scan visited %d items, want the 100 written", visits)
	}
	for i := range proto.ItemID(100) {
		want := Slot{State: proto.Shared, Value: uint64(i) + 1, Partner: proto.None}
		if got := a.Slot(first + i); got != want {
			t.Fatalf("Slot(%d) = %+v, want %+v", first+i, got, want)
		}
	}
	if got := a.ModifiedItems(nil); len(got) != 0 {
		t.Fatalf("modified = %v after the scan demoted every item", got)
	}
	a.DropFrame(0)
	if a.used != 0 {
		t.Fatalf("%d records left after dropping the only frame", a.used)
	}
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
