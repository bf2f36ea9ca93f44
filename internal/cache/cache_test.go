package cache

import (
	"testing"

	"tps/internal/addr"
)

func TestHitAfterFill(t *testing.T) {
	c := New(32<<10, 8)
	if c.Access(0x1000) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Fatal("warm access missed")
	}
	// Same line, different byte.
	if !c.Access(0x103f) {
		t.Fatal("same-line access missed")
	}
	// Next line misses.
	if c.Access(0x1040) {
		t.Fatal("next line hit")
	}
}

func TestLRUWithinSet(t *testing.T) {
	// 2-way, tiny cache: 2 sets of 2 ways (256 B).
	c := New(256, 2)
	setStride := addr.Phys(2 << LineShift) // same set every 2 lines
	a0 := addr.Phys(0)
	a1 := a0 + setStride
	a2 := a1 + setStride
	c.Access(a0)
	c.Access(a1)
	c.Access(a0) // a0 most recent
	c.Access(a2) // evicts a1
	if !c.Access(a0) {
		t.Error("a0 evicted wrongly")
	}
	if c.Access(a1) {
		t.Error("a1 should have been evicted")
	}
}

func TestMissRate(t *testing.T) {
	c := New(4<<10, 4)
	for i := 0; i < 64; i++ {
		c.Access(addr.Phys(i) << LineShift)
	}
	if got := c.MissRate(); got != 1.0 {
		t.Errorf("all-cold miss rate=%f", got)
	}
	for i := 0; i < 64; i++ {
		c.Access(addr.Phys(i) << LineShift)
	}
	if got := c.MissRate(); got != 0.5 {
		t.Errorf("miss rate=%f, want 0.5", got)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy()
	p := addr.Phys(0x123456)
	if got := h.Latency(p); got != h.Lat.DRAM {
		t.Errorf("cold latency=%d, want DRAM %d", got, h.Lat.DRAM)
	}
	if got := h.Latency(p); got != h.Lat.L1 {
		t.Errorf("hot latency=%d, want L1 %d", got, h.Lat.L1)
	}
	// Evict from L1 but not LLC: touch enough lines to overflow 32K.
	for i := 0; i < 1024; i++ {
		h.Latency(addr.Phys(0x4000000) + addr.Phys(i)<<LineShift)
	}
	if got := h.Latency(p); got != h.Lat.LLC {
		t.Errorf("LLC latency=%d, want %d", got, h.Lat.LLC)
	}
}

func TestWalkRefLatency(t *testing.T) {
	h := NewHierarchy()
	p := addr.Phys(0x777000)
	if got := h.WalkRefLatency(p); got != h.Lat.DRAM {
		t.Errorf("cold walk ref=%d", got)
	}
	if got := h.WalkRefLatency(p); got != h.Lat.LLC {
		t.Errorf("warm walk ref=%d, want LLC", got)
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name            string
		sizeBytes, ways int
		want            string
	}{
		{"non-pow2-sets", 3 << 10, 5, "cache: set count must be a positive power of two"},
		{"zero-ways", 32 << 10, 0, "cache: associativity must be positive"},
		{"negative-ways", 32 << 10, -8, "cache: associativity must be positive"},
		{"too-small", 32, 1, "cache: set count must be a positive power of two"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if got := recover(); got != tc.want {
					t.Errorf("New(%d, %d) panicked with %v, want %q", tc.sizeBytes, tc.ways, got, tc.want)
				}
			}()
			New(tc.sizeBytes, tc.ways)
		})
	}
}
