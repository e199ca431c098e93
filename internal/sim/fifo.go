package sim

// FIFO is a first-in first-out queue on a ring buffer: a model's waiting
// line, such as a server's queued requests or a lock's waiters. Pops
// advance a head index and pushes fill the slots behind it, so a queue
// that moves without growing reuses one backing array; it grows,
// doubling, only when full. No operation divides, and the zero value is
// an empty queue.
//
// Like a FreeList, a FIFO belongs to one model object on one engine, so
// it needs no locking.
type FIFO[T any] struct {
	buf  []T
	head int32 // index of the front element
	n    int32 // queued elements
}

// Len reports the number of queued elements.
func (q *FIFO[T]) Len() int { return int(q.n) }

// Push adds x at the back of the queue.
func (q *FIFO[T]) Push(x T) {
	if int(q.n) == len(q.buf) {
		buf := make([]T, max(2*len(q.buf), 4))
		k := copy(buf, q.buf[q.head:])
		copy(buf[k:], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	i := int(q.head + q.n)
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = x
	q.n++
}

// Front returns the element Pop would return; the queue must be
// non-empty.
func (q *FIFO[T]) Front() T { return q.buf[q.head] }

// Pop removes and returns the front element; the queue must be
// non-empty. The vacated slot is zeroed so it holds no references.
func (q *FIFO[T]) Pop() T {
	x := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	if q.head++; int(q.head) == len(q.buf) {
		q.head = 0
	}
	q.n--
	return x
}
