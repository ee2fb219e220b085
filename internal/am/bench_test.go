package am

import (
	"testing"

	"coma/internal/config"
	"coma/internal/proto"
)

func BenchmarkSlotAccess(b *testing.B) {
	a := New(config.KSR1(16), 0)
	a.AllocFrame(0, false, 0)
	a.Set(5, Slot{State: proto.Exclusive, Value: 9})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Slot(5)
	}
}

func BenchmarkModifiedItemsScan(b *testing.B) {
	arch := config.KSR1(16)
	a := New(arch, 0)
	// 64 consecutive pages spread across the sets, one modified item each.
	for f := 0; f < 64; f++ {
		a.AllocFrame(proto.PageID(f), false, int64(f))
		a.Set(arch.FirstItem(proto.PageID(f)), Slot{State: proto.Exclusive})
	}
	buf := make([]proto.ItemID, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = a.ModifiedItems(buf[:0])
	}
}

// BenchmarkSlotMiss reads an item of an allocated frame that was never
// written: one probe that ends at a free record.
func BenchmarkSlotMiss(b *testing.B) {
	arch := config.KSR1(16)
	a := New(arch, 0)
	a.AllocFrame(0, false, 0)
	a.Set(5, Slot{State: proto.Exclusive, Value: 9})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Slot(6)
	}
}

// BenchmarkSlotAccessPopulated reads written items of an AM holding
// 1,000 of them, spread over 100 frames.
func BenchmarkSlotAccessPopulated(b *testing.B) {
	arch := config.KSR1(16)
	a := New(arch, 0)
	var items []proto.ItemID
	for p := range proto.PageID(100) {
		a.AllocFrame(p, false, 0)
		for k := range 10 {
			item := arch.FirstItem(p) + proto.ItemID(k*12)
			a.Set(item, Slot{State: proto.Shared, Value: uint64(item)})
			items = append(items, item)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Slot(items[i%len(items)])
	}
}

// BenchmarkCommitScanSparse runs a commit scan's state map over 500
// frames with 2 written items each, the shape of ECP's anchor frames.
func BenchmarkCommitScanSparse(b *testing.B) {
	arch := config.KSR1(16)
	a := New(arch, 0)
	for p := range proto.PageID(500) {
		a.AllocFrame(p, false, 0)
		a.Set(arch.FirstItem(p)+3, Slot{State: proto.SharedCK1, Partner: 1})
		a.Set(arch.FirstItem(p)+90, Slot{State: proto.SharedCK2, Partner: 2})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ForEachAllocated(func(_ proto.ItemID, s *Slot) {
			switch s.State {
			case proto.PreCommit1:
				s.State = proto.SharedCK1
			case proto.PreCommit2:
				s.State = proto.SharedCK2
			case proto.InvCK1, proto.InvCK2:
				s.State, s.Partner = proto.Invalid, proto.None
			}
		})
	}
}
