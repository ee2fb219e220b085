package am

import (
	"fmt"
	"maps"
	"slices"

	"coma/internal/proto"
)

// pairFlavours are the primary states of the three recovery-pair
// flavours, in the order CheckPairs audits them.
var pairFlavours = [...]proto.State{proto.SharedCK1, proto.InvCK1, proto.PreCommit1}

// CheckPairs audits the recovery pairs held by a machine's attraction
// memories: the paper's fault-tolerance rule that every recovery copy
// has a partner copy on another node (§3–4). For each item and each
// pair flavour (Shared-CK, Inv-CK, Pre-Commit) it requires that
//
//   - neither copy of the pair is duplicated;
//   - the pair is whole: a 1 copy exists exactly when a 2 copy does;
//   - the two copies sit on distinct nodes;
//   - their partner pointers name each other;
//
// and that no item holds a Shared-CK and an Inv-CK pair at once (an
// item is either modified since the recovery point or not). Items are
// audited in ascending order and the first violation is returned, so a
// state with several violations reports the same one on every run; nil
// means every pair is sound. Both the mesh machine's invariant checker
// and the bus machine call it.
func CheckPairs(ams []*AM) error {
	// copies[st] lists the nodes holding the item in recovery state st;
	// partners[st] their partner pointers, index for index.
	type copies struct {
		nodes, partners [proto.NumStates][]proto.NodeID
	}
	items := make(map[proto.ItemID]*copies)
	for _, a := range ams {
		a.ForEachAllocated(func(it proto.ItemID, s *Slot) {
			if !s.State.Recovery() {
				return
			}
			c := items[it]
			if c == nil {
				c = new(copies)
				items[it] = c
			}
			c.nodes[s.State] = append(c.nodes[s.State], a.node)
			c.partners[s.State] = append(c.partners[s.State], s.Partner)
		})
	}
	for _, it := range slices.Sorted(maps.Keys(items)) {
		c := items[it]
		for _, one := range pairFlavours {
			two := one.Partner()
			ones, twos := c.nodes[one], c.nodes[two]
			if len(ones) > 1 || len(twos) > 1 {
				return fmt.Errorf("item %d has duplicated recovery copies: %d x %v, %d x %v",
					it, len(ones), one, len(twos), two)
			}
			if len(ones) != len(twos) {
				return fmt.Errorf("item %d has a broken recovery pair: %v on %v, %v on %v",
					it, one, ones, two, twos)
			}
			if len(ones) == 0 {
				continue
			}
			n1, n2 := ones[0], twos[0]
			if n1 == n2 {
				return fmt.Errorf("item %d has both recovery copies on node %v", it, n1)
			}
			if p := c.partners[one][0]; p != n2 {
				return fmt.Errorf("item %d: %v partner pointer %v, want %v", it, one, p, n2)
			}
			if p := c.partners[two][0]; p != n1 {
				return fmt.Errorf("item %d: %v partner pointer %v, want %v", it, two, p, n1)
			}
		}
		if len(c.nodes[proto.SharedCK1]) > 0 && len(c.nodes[proto.InvCK1]) > 0 {
			return fmt.Errorf("item %d has both Shared-CK and Inv-CK pairs", it)
		}
	}
	return nil
}
