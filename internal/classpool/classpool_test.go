package classpool

import "testing"

func TestGetReturnsExactClass(t *testing.T) {
	var p Pool[int]
	for k := 0; k <= 13; k++ {
		s, _ := p.Get(k)
		if len(s) != 0 || cap(s) != 1<<k {
			t.Fatalf("Get(%d): len %d cap %d, want 0 and %d", k, len(s), cap(s), 1<<k)
		}
	}
}

func TestClass(t *testing.T) {
	for _, c := range []struct{ n, k int }{{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {4096, 12}, {4097, 13}} {
		if got := Class(c.n); got != c.k {
			t.Errorf("Class(%d) = %d, want %d", c.n, got, c.k)
		}
	}
}

// TestPutRecyclesByClass: a parked slice serves the next request of its
// class (and only of its class), without touching the allocator; a slice of
// non-power-of-two capacity parks in the class below.
func TestPutRecyclesByClass(t *testing.T) {
	var p Pool[int]
	a, alloc := p.Get(5)
	if alloc != chunk {
		t.Fatalf("first Get allocated %d elements, want one chunk (%d)", alloc, chunk)
	}
	a = append(a, 1, 2, 3)
	p.Put(a)
	if b, _ := p.Get(4); cap(b) != 16 || &b[:1][0] == &a[:1][0] {
		t.Fatal("class 4 request was served from the class 5 free-list")
	}
	b, alloc := p.Get(5)
	if alloc != 0 || &b[:1][0] != &a[:1][0] || len(b) != 0 {
		t.Fatalf("class 5 request did not reuse the parked slice (alloc %d, len %d)", alloc, len(b))
	}
	big, alloc := p.Get(13)
	if alloc != 1<<13 {
		t.Fatalf("Get(13) allocated %d elements, want %d", alloc, 1<<13)
	}
	p.Put(big[3:3]) // capacity 8189 parks as class 12
	if s, alloc := p.Get(12); alloc != 0 || cap(s) != 1<<12 {
		t.Fatalf("trimmed slice not recycled as class 12 (alloc %d, cap %d)", alloc, cap(s))
	}
	if got := p.Held(); got != chunk-32-16 {
		t.Errorf("Held = %d, want the arena rest %d", got, chunk-32-16)
	}
}
