package cache

import (
	"testing"

	"coma/internal/config"
)

func BenchmarkAccessHit(b *testing.B) {
	c := New(config.KSR1(16), true)
	c.Fill(0x1000, true, 7, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0x1000, false, 0, int64(i))
	}
}

func BenchmarkFillEvict(b *testing.B) {
	arch := config.KSR1(16)
	c := New(arch, true)
	stride := uint64(arch.CacheLineSize * arch.CacheSectors * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Fill(uint64(i)*stride, false, 0, int64(i))
	}
}

var newSink *Cache

// BenchmarkNew builds one cache of the paper's geometry, with the value
// stamps a strict run reads and without them.
func BenchmarkNew(b *testing.B) {
	arch := config.KSR1(16)
	for _, bc := range []struct {
		name   string
		stamps bool
	}{{"stamps", true}, {"no-stamps", false}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				newSink = New(arch, bc.stamps)
			}
		})
	}
}
