// Package fifo provides the growable ring-buffer queue the simulated
// devices keep their in-flight and queued packets in. A slice used as a
// queue (append at the back, reslice at the front) reallocates for ever
// and keeps every popped element reachable until it does; a ring reuses
// its slots and clears them on Pop.
package fifo

// Queue is a first-in first-out queue of T. The zero value is an empty
// queue ready to use. It grows by doubling, so a queue in steady state
// does not allocate; a queue that drains completely gives back a buffer a
// burst grew past keep slots, so an idle device does not hold its deepest
// backlog for ever.
type Queue[T any] struct {
	buf  []T // len is zero or a power of two
	head int // index of the oldest element
	n    int
}

// keep is the largest buffer, in slots, an empty queue holds on to.
const keep = 64

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Push appends v at the back.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the front element, clearing its slot so the
// queue holds no reference to it. It panics on an empty queue.
func (q *Queue[T]) Pop() T {
	if q.n == 0 {
		panic("fifo: Pop on empty queue")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	if q.n == 0 && len(q.buf) > keep {
		q.buf, q.head = nil, 0
	}
	return v
}

// Head returns a pointer to the front element, which the caller may update
// in place; it stays valid until the next Push or Pop. It panics on an
// empty queue.
func (q *Queue[T]) Head() *T {
	if q.n == 0 {
		panic("fifo: Head on empty queue")
	}
	return &q.buf[q.head]
}

func (q *Queue[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
