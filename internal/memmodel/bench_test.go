package memmodel

import (
	"testing"

	"yhccl/internal/sim"
	"yhccl/internal/topo"
)

// BenchmarkResidencyInsert measures steady-state inserts into a cache under
// eviction pressure: the working set (1024 x 4 KB pages) is 4x the capacity,
// so every insert eventually evicts.
func BenchmarkResidencyInsert(b *testing.B) {
	c := newCacheState(0, 1<<20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%1024) * 4096
		c.insert(1, off, off+4096, i%2 == 0)
	}
}

// BenchmarkResidencyInsertFragmented measures inserts into a deliberately
// fragmented tracker: 4096 regions separated by 1-byte holes, re-touched in
// turn as dirty. After the first pass every insert covers exactly one
// region, so this times locating a region in a long sorted index.
func BenchmarkResidencyInsertFragmented(b *testing.B) {
	c := newCacheState(0, 64<<20)
	const regions = 4096
	for i := int64(0); i < regions; i++ {
		c.insert(1, i*4097, i*4097+4096, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := int64(i % regions)
		c.insert(1, r*4097, r*4097+4096, true)
	}
}

// BenchmarkResidencyLookup measures lookup over a fragmented tracker.
func BenchmarkResidencyLookup(b *testing.B) {
	c := newCacheState(0, 64<<20)
	const regions = 4096
	for i := int64(0); i < regions; i++ {
		c.insert(1, i*4097, i*4097+4096, i%2 == 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sum int64
	for i := 0; i < b.N; i++ {
		r := int64(i % regions)
		cached, _ := c.lookup(1, r*4097, r*4097+8192)
		sum += cached
	}
	_ = sum
}

// BenchmarkModelLoadStore measures the end-to-end hot path a collective
// takes per chunk: a modelled Load plus a temporal Store through the Model
// on a running sim proc.
func BenchmarkModelLoadStore(b *testing.B) {
	node := topo.NodeA()
	m := New(node, []int{0})
	buf := m.NewBuffer("bench", Private, 0, 1<<20, false)
	e := sim.NewEngine()
	n := b.N
	e.Spawn("r", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			off := int64(i%256) * 4096
			m.Load(p, 0, buf, off, 512)
			m.Store(p, 0, buf, off, 512, Temporal)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
