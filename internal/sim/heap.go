package sim

// eventHeap is the engine's event queue: a binary min-heap over the
// (at, seq) dispatch order. Each slot carries its event's key inline
// beside the event pointer, so the sift loops compare keys in place
// without dereferencing an event, and the comparison is a method on a
// concrete type the compiler inlines. (container/heap costs an interface
// call per Less/Swap plus a boxing allocation per Push; a generic heap
// instantiated at *event shares the pointer GC shape, so its
// comparisons become dictionary calls.) Push and pop allocate nothing
// beyond the amortized growth of the backing slice.
type eventHeap struct {
	s []slot
}

// slot is one queued event with its dispatch key.
type slot struct {
	at  Time
	seq uint64
	ev  *event
}

// before is the engine's dispatch order: time, then insertion order.
func (a *slot) before(b *slot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) len() int { return len(h.s) }

func (h *eventHeap) push(x slot) {
	h.s = append(h.s, x)
	h.up(len(h.s) - 1)
}

// pop removes the minimum slot; the heap must be non-empty. The vacated
// slot is zeroed so popped events do not leak through the backing
// array.
func (h *eventHeap) pop() {
	s := h.s
	n := len(s) - 1
	s[0] = s[n]
	s[n] = slot{}
	h.s = s[:n]
	if n > 1 {
		h.down(0)
	}
}

// up sifts the slot at index i toward the root. It moves holes, not
// pairs: the slot is held aside and written once.
func (h *eventHeap) up(i int) {
	s := h.s
	x := s[i]
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(&s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = x
}

// down sifts the slot at index i toward the leaves.
func (h *eventHeap) down(i int) {
	s := h.s
	n := len(s)
	x := s[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s[r].before(&s[l]) {
			m = r
		}
		if !s[m].before(&x) {
			break
		}
		s[i] = s[m]
		i = m
	}
	s[i] = x
}

// reinit re-establishes the heap invariant over the whole slice after
// the caller has edited it in place (compaction filters dead events).
// O(n), cheaper than n pushes.
func (h *eventHeap) reinit() {
	for i := len(h.s)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}
