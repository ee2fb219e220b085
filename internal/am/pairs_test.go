package am

import (
	"strings"
	"testing"

	"coma/internal/config"
	"coma/internal/proto"
)

// pairMachine is a four-node machine whose AMs all map page 0.
func pairMachine() []*AM {
	arch := config.KSR1(4)
	ams := make([]*AM, 4)
	for n := range ams {
		ams[n] = New(arch, proto.NodeID(n))
		ams[n].AllocFrame(0, false, 0)
	}
	return ams
}

// put forges one copy of item on node n.
func put(ams []*AM, n proto.NodeID, item proto.ItemID, st proto.State, partner proto.NodeID) {
	ams[n].Set(item, Slot{State: st, Partner: partner})
}

func TestCheckPairs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		forge func(ams []*AM)
		want  string // "" for a sound state
	}{
		{"no recovery data", func(ams []*AM) {
			put(ams, 0, 5, proto.Exclusive, proto.None)
		}, ""},
		{"one pair of each flavour on distinct items", func(ams []*AM) {
			put(ams, 0, 1, proto.SharedCK1, 1)
			put(ams, 1, 1, proto.SharedCK2, 0)
			put(ams, 2, 2, proto.InvCK1, 3)
			put(ams, 3, 2, proto.InvCK2, 2)
			put(ams, 1, 3, proto.PreCommit1, 2)
			put(ams, 2, 3, proto.PreCommit2, 1)
		}, ""},
		{"Inv-CK pair beside a Pre-Commit pair", func(ams []*AM) {
			put(ams, 0, 1, proto.InvCK1, 1)
			put(ams, 1, 1, proto.InvCK2, 0)
			put(ams, 2, 1, proto.PreCommit1, 3)
			put(ams, 3, 1, proto.PreCommit2, 2)
		}, ""},
		{"third copy of a pair", func(ams []*AM) {
			put(ams, 0, 1, proto.SharedCK1, 1)
			put(ams, 1, 1, proto.SharedCK2, 0)
			put(ams, 2, 1, proto.SharedCK2, 0)
		}, "item 1 has duplicated recovery copies: 1 x SharedCK1, 2 x SharedCK2"},
		{"half pair", func(ams []*AM) {
			put(ams, 0, 1, proto.InvCK1, 1)
		}, "item 1 has a broken recovery pair: InvCK1 on [n0], InvCK2 on []"},
		{"half Pre-Commit pair", func(ams []*AM) {
			put(ams, 3, 1, proto.PreCommit2, 0)
		}, "item 1 has a broken recovery pair: PreCommit1 on [], PreCommit2 on [n3]"},
		{"both copies on one node", func(ams []*AM) {
			// One slot holds one state, so the two copies need two
			// AMs claiming the same node.
			ams[1] = New(config.KSR1(4), 0)
			ams[1].AllocFrame(0, false, 0)
			put(ams, 0, 1, proto.SharedCK1, 0)
			put(ams, 1, 1, proto.SharedCK2, 0)
		}, "item 1 has both recovery copies on node n0"},
		{"primary's partner pointer", func(ams []*AM) {
			put(ams, 0, 1, proto.SharedCK1, 2)
			put(ams, 1, 1, proto.SharedCK2, 0)
		}, "item 1: SharedCK1 partner pointer n2, want n1"},
		{"secondary's partner pointer", func(ams []*AM) {
			put(ams, 0, 1, proto.PreCommit1, 1)
			put(ams, 1, 1, proto.PreCommit2, proto.None)
		}, "item 1: PreCommit2 partner pointer none, want n0"},
		{"Shared-CK and Inv-CK pairs at once", func(ams []*AM) {
			put(ams, 0, 1, proto.SharedCK1, 1)
			put(ams, 1, 1, proto.SharedCK2, 0)
			put(ams, 2, 1, proto.InvCK1, 3)
			put(ams, 3, 1, proto.InvCK2, 2)
		}, "item 1 has both Shared-CK and Inv-CK pairs"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ams := pairMachine()
			tc.forge(ams)
			err := CheckPairs(ams)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("sound state rejected: %v", err)
			case tc.want != "" && (err == nil || err.Error() != tc.want):
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestCheckPairsReportsLowestItem: with violations on several items the
// audit names the lowest item, whatever order the AMs hold them in.
func TestCheckPairsReportsLowestItem(t *testing.T) {
	for range 20 {
		ams := pairMachine()
		for _, it := range []proto.ItemID{40, 7, 90, 12} {
			put(ams, proto.NodeID(it%4), it, proto.SharedCK1, proto.None)
		}
		if err := CheckPairs(ams); err == nil || !strings.HasPrefix(err.Error(), "item 7 ") {
			t.Fatalf("err = %v, want the violation of item 7", err)
		}
	}
}
