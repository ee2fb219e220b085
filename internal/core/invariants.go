package core

import (
	"fmt"
	"maps"
	"slices"

	"coma/internal/am"
	"coma/internal/coherence"
	"coma/internal/directory"
	"coma/internal/proto"
)

// copySet describes the current copies of one item across the machine.
type copySet struct {
	owners  []proto.NodeID // Exclusive / MasterShared / SharedCK1 / PreCommit1
	shared  []proto.NodeID
	current int // Shared + MasterShared + Exclusive
	excl    int
}

// CheckInvariants validates the recovery-data and coherence invariants at
// a quiesced point (no transaction in flight):
//
//   - recovery pairs are sound on the live nodes (am.CheckPairs);
//   - at most one owner-state copy per item, matching the directory;
//   - Exclusive implies no other current copy;
//   - every sharer recorded in the directory holds a Shared copy and
//     vice versa;
//   - a directory owner holds the item's owner-state copy.
//
// The AM scans visit written items only, so the items come from the
// directory as well as from the scans: an owner or sharer the directory
// names for an item no live AM holds is still checked. It returns the
// first violation found, items in ascending order, or nil.
func CheckInvariants(coh *coherence.Engine) error {
	dir := coh.Directory()
	alive := dir.AliveNodes()
	ams := make([]*am.AM, len(alive))
	for i, n := range alive {
		ams[i] = coh.AM(n)
	}
	if err := am.CheckPairs(ams); err != nil {
		return err
	}

	items := make(map[proto.ItemID]*copySet)
	copiesOf := func(it proto.ItemID) *copySet {
		cs := items[it]
		if cs == nil {
			cs = &copySet{}
			items[it] = cs
		}
		return cs
	}
	dir.ForEach(func(it proto.ItemID, e directory.Entry) {
		if e.Owner() != proto.None || e.Sharers.Len() > 0 {
			copiesOf(it)
		}
	})
	for _, a := range ams {
		n := a.Node()
		a.ForEachAllocated(func(it proto.ItemID, s *slotView) {
			cs := copiesOf(it)
			switch s.State {
			case proto.Shared:
				cs.shared = append(cs.shared, n)
				cs.current++
			case proto.MasterShared:
				cs.owners = append(cs.owners, n)
				cs.current++
			case proto.Exclusive:
				cs.owners = append(cs.owners, n)
				cs.current++
				cs.excl++
			case proto.SharedCK1, proto.PreCommit1:
				cs.owners = append(cs.owners, n)
			case proto.Invalid, proto.SharedCK2, proto.InvCK1, proto.InvCK2, proto.PreCommit2:
			}
		})
	}

	for _, it := range slices.Sorted(maps.Keys(items)) {
		cs := items[it]
		if len(cs.owners) > 1 {
			return fmt.Errorf("item %d has %d owner copies on %v", it, len(cs.owners), cs.owners)
		}
		if cs.excl > 0 && cs.current > 1 {
			return fmt.Errorf("item %d is Exclusive but has %d current copies", it, cs.current)
		}

		entry, ok := dir.Lookup(it)
		if len(cs.owners) == 0 && ok && entry.Owner() != proto.None {
			return fmt.Errorf("item %d: directory owner %v holds no owner copy", it, entry.Owner())
		}
		if len(cs.owners) == 1 {
			if !ok {
				return fmt.Errorf("item %d has owner %v but no directory entry", it, cs.owners[0])
			}
			if entry.Owner() != cs.owners[0] {
				return fmt.Errorf("item %d: directory owner %v, actual %v", it, entry.Owner(), cs.owners[0])
			}
		}
		if ok {
			for _, s := range cs.shared {
				if !entry.Sharers.Contains(s) {
					return fmt.Errorf("item %d: node %v holds Shared but is not in the sharing set", it, s)
				}
			}
			holders := make(map[proto.NodeID]bool, len(cs.shared))
			for _, h := range cs.shared {
				holders[h] = true
			}
			for _, s := range entry.Sharers.Members() {
				if !holders[s] {
					return fmt.Errorf("item %d: node %v is in the sharing set but holds no Shared copy",
						it, s)
				}
			}
		}
	}
	return nil
}

// CheckQuiescent additionally requires that no Pre-Commit copies exist
// (outside an establishment) and that the recovery point is complete:
// every checkpointed item has exactly one committed pair.
func CheckQuiescent(coh *coherence.Engine) error {
	if err := CheckInvariants(coh); err != nil {
		return err
	}
	dir := coh.Directory()
	for _, n := range dir.AliveNodes() {
		var found error
		coh.AM(n).ForEachAllocated(func(it proto.ItemID, s *slotView) {
			if found == nil && (s.State == proto.PreCommit1 || s.State == proto.PreCommit2) {
				found = fmt.Errorf("item %d has a %v copy outside an establishment on node %v",
					it, s.State, n)
			}
		})
		if found != nil {
			return found
		}
	}
	return nil
}

// slotView aliases the AM slot type for scan callbacks.
type slotView = am.Slot
