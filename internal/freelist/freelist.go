// Package freelist keeps released objects for reuse: the engine's run
// state, the pooled schedulers and the router's search scratch.
//
// It is a bounded channel, not a sync.Pool, because the simulator's
// allocation guarantees are tested: a sync.Pool drops objects at every
// other garbage collection and, under the race detector, at random, so a
// run that should reuse storage would allocate it anew at times. Objects
// are created only when the list is empty, so it never holds more than
// the most that were in use at once.
package freelist

// capacity bounds what a list keeps: more than the engine runs at once
// (one per daemon slot or experiment worker), so in practice nothing
// released is dropped.
const capacity = 64

// List is a free list of *T. Its methods are safe for concurrent use.
type List[T any] struct {
	free  chan *T
	alloc func() *T
}

// New returns an empty list that builds new objects with alloc.
func New[T any](alloc func() *T) *List[T] {
	return &List[T]{free: make(chan *T, capacity), alloc: alloc}
}

// Get returns a released object, or a new one when none is free.
func (l *List[T]) Get() *T {
	select {
	case x := <-l.free:
		return x
	default:
		return l.alloc()
	}
}

// Put releases x for reuse. The caller must not use x afterwards.
func (l *List[T]) Put(x *T) {
	select {
	case l.free <- x:
	default: // full: the garbage collector takes x
	}
}
