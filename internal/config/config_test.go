package config

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"coma/internal/proto"
)

func TestKSR1MatchesPaperGeometry(t *testing.T) {
	a := KSR1(16)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := a.ItemsPerPage(); got != 128 {
		t.Errorf("ItemsPerPage = %d, want 128 (16KB page / 128B item)", got)
	}
	if got := a.AMFrames(); got != 512 {
		t.Errorf("AMFrames = %d, want 512 (8MB / 16KB)", got)
	}
	if got := a.AMSets(); got != 32 {
		t.Errorf("AMSets = %d, want 32 (512 frames 16-way)", got)
	}
	if got := a.CacheLines(); got != 4096 {
		t.Errorf("CacheLines = %d, want 4096 (256KB / 64B)", got)
	}
	if got := a.LinesPerItem(); got != 2 {
		t.Errorf("LinesPerItem = %d, want 2", got)
	}
	if got := a.DataMsgFlits(); got != 34 {
		t.Errorf("DataMsgFlits = %d, want 34 (2 header + 32 data)", got)
	}
}

func TestMeshDims(t *testing.T) {
	cases := []struct{ nodes, w, h int }{
		{1, 1, 1}, {4, 2, 2}, {9, 3, 3}, {16, 4, 4},
		{30, 6, 5}, {42, 7, 6}, {56, 8, 7},
	}
	for _, c := range cases {
		a := KSR1(c.nodes)
		w, h := a.MeshDims()
		if w != c.w || h != c.h {
			t.Errorf("MeshDims(%d) = (%d,%d), want (%d,%d)", c.nodes, w, h, c.w, c.h)
		}
		if w*h < c.nodes {
			t.Errorf("MeshDims(%d) = (%d,%d) cannot hold all nodes", c.nodes, w, h)
		}
	}
}

func TestCheckpointIntervalCycles(t *testing.T) {
	a := KSR1(16)
	if got := a.CheckpointIntervalCycles(400); got != 50_000 {
		t.Errorf("400/s interval = %d cycles, want 50000", got)
	}
	if got := a.CheckpointIntervalCycles(5); got != 4_000_000 {
		t.Errorf("5/s interval = %d cycles, want 4000000", got)
	}
	if got := a.CheckpointIntervalCycles(0); got != 0 {
		t.Errorf("0/s interval = %d, want 0 (never)", got)
	}
}

func TestAddressMapping(t *testing.T) {
	a := KSR1(16)
	if got := a.ItemOf(0); got != 0 {
		t.Errorf("ItemOf(0) = %d", got)
	}
	if got := a.ItemOf(127); got != 0 {
		t.Errorf("ItemOf(127) = %d, want 0", got)
	}
	if got := a.ItemOf(128); got != 1 {
		t.Errorf("ItemOf(128) = %d, want 1", got)
	}
	if got := a.PageOf(127); got != 0 {
		t.Errorf("PageOf(item 127) = %d, want 0", got)
	}
	if got := a.PageOf(128); got != 1 {
		t.Errorf("PageOf(item 128) = %d, want 1", got)
	}
	if got := a.FirstItem(proto.PageID(2)); got != 256 {
		t.Errorf("FirstItem(page 2) = %d, want 256", got)
	}
	if got := a.ItemIndexInPage(proto.ItemID(130)); got != 2 {
		t.Errorf("ItemIndexInPage(130) = %d, want 2", got)
	}
}

func TestAddressMappingProperty(t *testing.T) {
	a := KSR1(16)
	roundTrip := func(addr uint64) bool {
		addr %= 1 << 34
		item := a.ItemOf(addr)
		page := a.PageOf(item)
		if a.PageOfAddr(addr) != page {
			return false
		}
		back := proto.ItemID(int(a.FirstItem(page)) + a.ItemIndexInPage(item))
		return back == item
	}
	if err := quick.Check(roundTrip, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadGeometry(t *testing.T) {
	bad := KSR1(16)
	bad.PageSize = 1000 // not a multiple of item size
	if bad.Validate() == nil {
		t.Error("Validate accepted PageSize not multiple of ItemSize")
	}
	bad = KSR1(16)
	bad.Nodes = 0
	if bad.Validate() == nil {
		t.Error("Validate accepted zero nodes")
	}
	bad = KSR1(16)
	bad.AnchorFrames = 20 // more anchors than nodes
	if bad.Validate() == nil {
		t.Error("Validate accepted AnchorFrames > Nodes")
	}
	bad = KSR1(16)
	bad.ItemSize = 96 // not a multiple of cache line
	if bad.Validate() == nil {
		t.Error("Validate accepted ItemSize not multiple of CacheLineSize")
	}
}

// TestValidateRejectsNonPositiveGeometry: every size and way count is a
// divisor somewhere in Validate or the machine build, so a zero or
// negative one must come back as an error naming the field, not as an
// integer-divide panic.
func TestValidateRejectsNonPositiveGeometry(t *testing.T) {
	cases := []struct {
		field string
		set   func(*Arch, int)
	}{
		{"PageSize", func(a *Arch, v int) { a.PageSize = v }},
		{"CacheWays", func(a *Arch, v int) { a.CacheWays = v }},
		{"AMWays", func(a *Arch, v int) { a.AMWays = v }},
		{"AMSize", func(a *Arch, v int) { a.AMSize = v }},
		{"CacheSize", func(a *Arch, v int) { a.CacheSize = v }},
		{"CacheSectors", func(a *Arch, v int) { a.CacheSectors = v }},
		{"CacheLineSize", func(a *Arch, v int) { a.CacheLineSize = v }},
		{"ItemSize", func(a *Arch, v int) { a.ItemSize = v }},
	}
	for _, c := range cases {
		for _, v := range []int{0, -1} {
			a := KSR1(16)
			c.set(&a, v)
			err := a.Validate()
			want := fmt.Sprintf("config: %s = %d, need >= 1", c.field, v)
			if err == nil || err.Error() != want {
				t.Errorf("%s = %d: Validate() = %v, want %q", c.field, v, err, want)
			}
		}
	}
}

// TestValidateCacheGeometryOverflow: a line size and way count whose
// product wraps to zero (on 64-bit ints) must be rejected, not reach a
// modulo by that product.
func TestValidateCacheGeometryOverflow(t *testing.T) {
	big := 1
	big <<= 32
	a := KSR1(16)
	a.CacheLineSize, a.ItemSize, a.PageSize = big, big, big
	a.AMSize = 16 * big
	a.CacheSize, a.CacheWays = big, big
	err := a.Validate()
	if err == nil || !strings.Contains(err.Error(), "cache geometry") {
		t.Errorf("Validate() = %v, want a cache geometry error", err)
	}
}

func TestModernPresetScalesNetworkOnly(t *testing.T) {
	k, m := KSR1(16), Modern(16)
	if m.ClockHz != 5*k.ClockHz {
		t.Errorf("Modern clock = %d, want 5x", m.ClockHz)
	}
	if m.CacheAccess != k.CacheAccess {
		t.Errorf("Modern cache access changed: %d", m.CacheAccess)
	}
	if m.HopLatency != 5*k.HopLatency {
		t.Errorf("Modern hop latency = %d, want 5x", m.HopLatency)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMsgFlitsByKind(t *testing.T) {
	a := KSR1(16)
	if got := a.MsgFlits(proto.MsgReadReq); got != 2 {
		t.Errorf("read request = %d flits, want 2", got)
	}
	if got := a.MsgFlits(proto.MsgDataReply); got != 34 {
		t.Errorf("data reply = %d flits, want 34", got)
	}
	if got := a.MsgFlits(proto.MsgInjectData); got != 34 {
		t.Errorf("inject data = %d flits, want 34", got)
	}
}

func TestDSVMPresetGeometry(t *testing.T) {
	a := DSVM(8)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.ItemSize != 4<<10 {
		t.Errorf("DSVM coherence unit = %d, want a 4KB page", a.ItemSize)
	}
	if got := a.ItemsPerPage(); got != 16 {
		t.Errorf("items per allocation unit = %d, want 16", got)
	}
	if a.AMAccess <= KSR1(8).AMAccess {
		t.Error("software DSM must be slower than the hardware controller")
	}
	// A 4KB page needs 1026 flits on the wire.
	if got := a.DataMsgFlits(); got != 1026 {
		t.Errorf("data message = %d flits, want 1026", got)
	}
}
