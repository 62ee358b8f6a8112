// Package eventq provides an unbounded FIFO queue used as the inbox of the
// protocol components' event loops.
//
// Components of the stack form a cycle of interactions (e.g. atomic
// broadcast pushes proposals into consensus while consensus pushes decisions
// back into atomic broadcast). With bounded channels on both edges, two full
// queues could deadlock the loops against each other. Unbounded inboxes with
// non-blocking Push break every such cycle: a component's event loop can
// always make progress, and producers never block.
package eventq

import "sync"

// Queue is an unbounded multiple-producer single-consumer FIFO.
// The zero value is not usable; call New.
//
// items[head:] is the queue. TryPop advances head and zeroes the slot it
// leaves, so consumed items are not pinned; Push reuses the dead front
// before it grows the array.
type Queue[T any] struct {
	mu     sync.Mutex
	items  []T
	head   int
	notify chan struct{}
	closed bool
}

// New creates an empty queue.
func New[T any]() *Queue[T] {
	return &Queue[T]{notify: make(chan struct{}, 1)}
}

// Push appends v. It never blocks. Pushing to a closed queue is a no-op.
func (q *Queue[T]) Push(v T) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	// A full array whose dead front is at least half of it is compacted
	// instead of grown, so a steady backlog costs no allocation and each
	// item is copied at most once per compaction.
	if len(q.items) == cap(q.items) && 2*q.head >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
	q.mu.Unlock()
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// TryPop removes and returns the head of the queue, if any.
func (q *Queue[T]) TryPop() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var zero T
	if q.head == len(q.items) {
		return zero, false
	}
	v := q.items[q.head]
	q.items[q.head] = zero
	if q.head++; q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v, true
}

// Wait returns a channel that receives a token when items may be available.
// A consumer loop drains with TryPop until empty, then blocks on Wait.
func (q *Queue[T]) Wait() <-chan struct{} { return q.notify }

// Len returns the current queue length.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items) - q.head
}

// Close marks the queue closed; subsequent Pushes are dropped.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.items, q.head = nil, 0
}
