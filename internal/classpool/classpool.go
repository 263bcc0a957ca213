// Package classpool recycles slices by power-of-two size class: the storage
// scheme behind the simulator's calendar buckets and the routing providers'
// reachability-field bitsets. A request for class k always gets a slice of
// capacity exactly 1<<k, and a returned slice goes back to the class it can
// serve, so what a pool holds is, per class, the peak number of slices of
// that class ever in use at once — never more, however long the run.
package classpool

import "math/bits"

const (
	// maxClass bounds the class table (1<<maxClass elements).
	maxClass = 40
	// chunk is the arena carving granularity, in elements: classes below it
	// are cut from shared chunks, so a pool's ramp-up costs one allocation per
	// chunk instead of one per slice; classes at or above it are allocated
	// on their own.
	chunk = 4096
)

// Pool hands out empty slices by size class and takes them back. The zero
// value is ready to use. A Pool is not safe for concurrent use.
type Pool[T any] struct {
	free  [maxClass + 1][][]T // free[k] holds slices of capacity exactly 1<<k
	arena []T                 // uncarved rest of the current chunk
}

// Class returns the smallest class holding n elements: the least k with
// 1<<k >= n.
func Class(n int) int { return bits.Len(uint(n - 1)) }

// Get returns an empty slice of capacity exactly 1<<k: a parked one when the
// class has any, else fresh storage. alloc is the number of elements newly
// taken from the allocator to serve the call (0 on reuse).
func (p *Pool[T]) Get(k int) (s []T, alloc int) {
	if l := p.free[k]; len(l) > 0 {
		p.free[k] = l[:len(l)-1]
		return l[len(l)-1], 0
	}
	n := 1 << k
	if n >= chunk {
		return make([]T, 0, n), n
	}
	if len(p.arena) < n {
		p.arena = make([]T, chunk)
		alloc = chunk
	}
	// The three-index slice caps the result at exactly n, so appending at
	// capacity can never spill into storage carved for another slice.
	s = p.arena[:0:n]
	p.arena = p.arena[n:]
	return s, alloc
}

// Put parks s in the largest class it can serve (its capacity rounded down
// to a power of two). Zero-capacity slices are dropped.
func (p *Pool[T]) Put(s []T) {
	if cap(s) == 0 {
		return
	}
	k := bits.Len(uint(cap(s))) - 1
	p.free[k] = append(p.free[k], s[:0:1<<k])
}

// Held returns the capacity, in elements, parked in the free-lists plus the
// uncarved rest of the arena: the storage the pool holds that no caller is
// using.
func (p *Pool[T]) Held() int {
	n := len(p.arena)
	for _, l := range p.free {
		for _, s := range l {
			n += cap(s)
		}
	}
	return n
}
