package sim

import (
	"math"
	"math/bits"
)

// radixQueue is the engine's event queue: a radix heap over monotone
// keys with a sorted front. A key is the bit pattern of an event time
// (math.Float64bits). Times are never negative or NaN, and -0 is stored
// as +0, so keys order exactly as the times do.
//
// The queue pops the front, then bucket 0, then the other buckets. The
// front is a short run of keys at most last, sorted. Bucket 0 holds
// keys equal to last pushed after every front slot. A key above last is
// read as eleven six-bit digits (the top one four bits wide) and sits in
// bucket (l, d): l is the highest digit in which it differs from last,
// d is its value of that digit. These buckets order as (l, d) does, so
// every key in one is below every key in a later one, and last may move
// to any key of the lowest of them without moving a slot of any other.
// A push above last is one XOR, one bit-length and one append. Two
// masks, one bit per level and one bit per digit of each level, find
// the lowest non-empty bucket with two TrailingZeros; each bucket keeps
// its own minimum as slots arrive, so nothing scans a bucket to find it.
//
// When the front and bucket 0 run dry, the lowest bucket refills them.
// A bucket that fits one chunk is sorted into the front whole, with
// every other bucket when the whole queue fits one too, and last moves
// to the greatest key taken. A longer one moves last to its least key
// and spills: slots with that key go to bucket 0, the rest to the empty
// buckets below. A spill moves a slot down at least one level, so a slot
// moves at most 11 times, whatever the queue's depth.
//
// A push below last goes into the front, after every key not above it.
// Simulated time never runs backwards, so it lands between the clock
// and last, a span a deep queue's front keeps short. Past frontMax
// slots, a push into the middle of the front lowers last instead (see
// lower), so no push moves more than frontMax slots. While every bucket
// is empty, a push above last onto a front shorter than frontMax extends
// the front and moves last to it, so a queue that shallow runs as one
// sorted array.
//
// Dispatch order is exactly (at, insertion order) without a sequence
// number. The front is sorted stably, and every bucket keeps its slots
// in insertion order: a push appends; a spill or lower moves a bucket's
// slots, in order, into buckets that hold none of their keys; and a
// bucket's minimum is its first slot with the least key.
//
// Peeking finds the minimum without moving last: a caller can stop
// before it (RunUntil at a deadline, a Cluster shard at its window
// bound) and then push between the clock and that minimum.
//
// Slots are 16 bytes and hold no pointer (the event is an index into the
// engine's arena), so the GC never scans a slot nor pays a write barrier
// when one moves. Buckets are chains of fixed-size chunks drawn from one
// queue-wide pool, which grows by slabs that never move; a drained chunk
// goes back to the pool at once, so the queue's memory follows its
// depth, whichever buckets the depth sits in, and a warm queue allocates
// nothing.
type radixQueue struct {
	last uint64 // see the type's comment for the keys on each side of it
	n    int    // queued slots, live or cancelled

	front []slot // from index fh on
	fh    int

	lmask uint64          // bit 0: bucket 0 is non-empty; bit 1+l: level l has a non-empty bucket
	dmask [levels]uint64  // bit d of dmask[l]: bucket (l, d) is non-empty
	b     [buckets]bucket // bucket 0, then (l, d) at 1 + l*digits + d

	slabs []*[slabLen]chunk // chunk c is slabs[c/slabLen][c%slabLen]; chunk 0 is never used
	next  []uint32          // chunk index -> next chunk of its bucket
	pool  []uint32          // free chunk indices
}

const (
	digitBits = 6
	digits    = 1 << digitBits
	levels    = (64 + digitBits - 1) / digitBits
	buckets   = 1 + levels*digits

	chunkLen = 32
	slabLen  = 16 // chunks the pool grows by
	frontMax = 32 // the longest front a push may grow anywhere but at its tail
)

// slot is one queued event: its time key and its arena index.
type slot struct {
	key uint64
	ev  uint32
}

// time returns the slot's event time.
func (s slot) time() Time { return Time(math.Float64frombits(s.key)) }

// chunk is a fixed run of a bucket's slots.
type chunk [chunkLen]slot

// bucket is a chain of chunks from head to tail, or empty when head is
// 0. Its slots run from index lo of head to index hi of tail
// (exclusive); every chunk between is full, and only bucket 0, which
// pops from its head, has lo above 0. tp is chunk tail, so an append
// needs no lookup. min is the first of its slots with the least key;
// bucket 0's keys are all equal, and its head is read instead.
type bucket struct {
	head, tail uint32
	lo, hi     uint32
	tp         *chunk
	min        slot
}

// timeKey returns t's queue key. Clearing the sign bit stores -0 as +0;
// no other valid time has it set.
func timeKey(t Time) uint64 { return math.Float64bits(float64(t)) &^ (1 << 63) }

// bucketOf returns the bucket of a key not below last.
func bucketOf(key, last uint64) int {
	x := key ^ last
	if x == 0 {
		return 0
	}
	l := uint(bits.Len64(x)-1) / digitBits
	return 1 + int(l*digits+uint(key>>(l*digitBits))%digits)
}

func (q *radixQueue) len() int { return q.n }

// push queues event ev at key.
func (q *radixQueue) push(key uint64, ev uint32) {
	q.n++
	s := slot{key: key, ev: ev}
	short := len(q.front)-q.fh < frontMax
	switch {
	case key < q.last && (short || key >= q.front[len(q.front)-1].key):
		q.insert(s)
	case key >= q.last && short && q.lmask == 0:
		q.last = key // a short queue that is all front stays one sorted array
		q.insert(s)
	default:
		if key < q.last {
			q.lower(key)
		}
		q.put(bucketOf(key, q.last), s)
	}
}

// insert places s in the front after every key not above it.
func (q *radixQueue) insert(s slot) {
	if len(q.front) == cap(q.front) && q.fh > 0 {
		q.front = q.front[:copy(q.front, q.front[q.fh:])]
		q.fh = 0
	}
	i := len(q.front)
	for i > q.fh && q.front[i-1].key > s.key {
		i--
	}
	q.front = append(q.front, slot{})
	copy(q.front[i+1:], q.front[i:])
	q.front[i] = s
}

// put appends s to bucket b.
func (q *radixQueue) put(b int, s slot) {
	bk := &q.b[b]
	if bk.head == 0 || bk.hi == chunkLen {
		q.extend(b)
	}
	bk.tp[bk.hi] = s
	bk.hi++
	if s.key < bk.min.key {
		bk.min = s
	}
}

// extend gives bucket b room for one more slot: a first chunk if b is
// empty, else a new tail chunk.
func (q *radixQueue) extend(b int) {
	c := q.alloc()
	bk := &q.b[b]
	if bk.head != 0 {
		q.next[bk.tail] = c
		bk.tail, bk.tp, bk.hi = c, q.at(c), 0
		return
	}
	*bk = bucket{head: c, tail: c, tp: q.at(c), min: slot{key: math.MaxUint64}}
	if b == 0 {
		q.lmask |= 1
		return
	}
	l, d := uint(b-1)/digits, uint(b-1)%digits
	q.lmask |= 2 << l
	q.dmask[l] |= 1 << d
}

// release returns bucket b's last chunk c to the pool and marks b
// empty.
func (q *radixQueue) release(b int, c uint32) {
	q.pool = append(q.pool, c)
	q.b[b].head = 0
	if b == 0 {
		q.lmask &^= 1
		return
	}
	l, d := uint(b-1)/digits, uint(b-1)%digits
	if q.dmask[l] &^= 1 << d; q.dmask[l] == 0 {
		q.lmask &^= 2 << l
	}
}

// at returns chunk c.
func (q *radixQueue) at(c uint32) *chunk { return &q.slabs[c/slabLen][c%slabLen] }

// alloc takes a chunk from the pool.
func (q *radixQueue) alloc() uint32 {
	if len(q.pool) == 0 {
		q.grow()
	}
	c := q.pool[len(q.pool)-1]
	q.pool = q.pool[:len(q.pool)-1]
	return c
}

// grow adds a slab of chunks to the pool. Chunks never move, so growth
// copies nothing, and a queue that settles at a depth stops allocating
// however its buckets shift.
func (q *radixQueue) grow() {
	first := len(q.next)
	q.slabs = append(q.slabs, new([slabLen]chunk))
	q.next = append(q.next, make([]uint32, slabLen)...)
	for c := max(1, first); c < len(q.next); c++ {
		q.pool = append(q.pool, uint32(c))
	}
}

// lowest returns the lowest non-empty bucket after bucket 0; one must
// exist.
func (q *radixQueue) lowest() int {
	l := bits.TrailingZeros64(q.lmask >> 1)
	return 1 + l*digits + bits.TrailingZeros64(q.dmask[l])
}

// peek returns the minimum slot without removing it; the queue must be
// non-empty.
func (q *radixQueue) peek() slot {
	if q.fh < len(q.front) {
		return q.front[q.fh]
	}
	return q.peekBuckets()
}

// peekBuckets is peek with the front empty. It stays out of line so
// that peek's front path inlines into the dispatch loops.
//
//go:noinline
func (q *radixQueue) peekBuckets() slot {
	if q.lmask&1 != 0 {
		bk := &q.b[0]
		return q.at(bk.head)[bk.lo]
	}
	return q.b[q.lowest()].min
}

// pop removes and returns the minimum slot; the queue must be
// non-empty.
func (q *radixQueue) pop() slot {
	if q.fh == len(q.front) && q.lmask&1 == 0 {
		q.refill()
	}
	q.n--
	if q.fh < len(q.front) {
		s := q.front[q.fh]
		if q.fh++; q.fh == len(q.front) {
			q.front, q.fh = q.front[:0], 0
		}
		return s
	}
	bk := &q.b[0]
	s := q.at(bk.head)[bk.lo]
	bk.lo++
	switch {
	case bk.head == bk.tail:
		if bk.lo == bk.hi {
			q.release(0, bk.head)
		}
	case bk.lo == chunkLen:
		q.pool = append(q.pool, bk.head)
		bk.head, bk.lo = q.next[bk.head], 0
	}
	return s
}

// refill moves the least keys into the empty front and bucket 0. A
// lowest bucket longer than a chunk spills, sending the slots with its
// least key to bucket 0. Otherwise the front takes that bucket, or every
// bucket when the whole queue fits a chunk, sorted, and last moves to
// its greatest key.
func (q *radixQueue) refill() {
	k := q.lowest()
	if bk := &q.b[k]; bk.head != bk.tail {
		q.last = bk.min.key
		q.spill(k)
		return
	}
	q.front, q.fh = q.front[:0], 0
	if q.n <= chunkLen {
		q.each(math.MaxUint64, q.take)
	} else {
		q.take(k)
	}
	f := q.front
	for i := 1; i < len(f); i++ { // stable insertion sort
		s, j := f[i], i
		for ; j > 0 && f[j-1].key > s.key; j-- {
			f[j] = f[j-1]
		}
		f[j] = s
	}
	q.last = f[len(f)-1].key
}

// take appends bucket b, a single chunk, to the front and empties it.
func (q *radixQueue) take(b int) {
	bk := &q.b[b]
	q.front = append(q.front, q.at(bk.head)[:bk.hi]...)
	q.release(b, bk.head)
}

// spill empties bucket k into the buckets its slots belong in relative
// to last, in order, returning each drained chunk to the pool.
func (q *radixQueue) spill(k int) {
	bk, last := q.b[k], q.last
	for c := bk.head; ; c = q.next[c] {
		hi := uint32(chunkLen)
		if c == bk.tail {
			hi = bk.hi
		}
		for _, s := range q.at(c)[bk.lo:hi] {
			q.put(bucketOf(s.key, last), s)
		}
		if c == bk.tail {
			q.release(k, c)
			return
		}
		bk.lo = 0
		q.pool = append(q.pool, c)
	}
}

// lower moves last down to key, which is below it, with every front slot
// above key and every bucket-0 slot going back into the other buckets.
// Let l be the highest digit in which key and last differ. Relative to
// key, every bucket at level l or above keeps its slots, and every slot
// below level l, like every bucket-0 slot, lands in bucket (l, last's
// digit l), which no slot occupied. The front slots move before bucket
// 0, so a front slot and a bucket-0 slot with the old last as key keep
// their order.
func (q *radixQueue) lower(key uint64) {
	l := (bits.Len64(q.last^key) - 1) / digitBits
	q.last = key
	q.each((2<<l-1)&^1, q.spill)
	f := q.front[q.fh:]
	i := len(f)
	for i > 0 && f[i-1].key > key {
		i--
	}
	for _, s := range f[i:] {
		q.put(bucketOf(s.key, key), s)
	}
	q.front = q.front[:q.fh+i]
	q.each(1, q.spill)
}

// each calls f on every non-empty bucket whose bit is set in lm (bit 0
// for bucket 0, bit 1+l for level l), in bucket order. f may empty the
// bucket it is given, and fill buckets outside lm.
func (q *radixQueue) each(lm uint64, f func(b int)) {
	for lm &= q.lmask; lm != 0; lm &= lm - 1 {
		i := bits.TrailingZeros64(lm)
		if i == 0 {
			f(0)
			continue
		}
		for dm := q.dmask[i-1]; dm != 0; dm &= dm - 1 {
			f(1 + (i-1)*digits + bits.TrailingZeros64(dm))
		}
	}
}

// filter removes every slot for which dead reports true, keeping the
// rest of the front and of each bucket in order.
func (q *radixQueue) filter(dead func(ev uint32) bool) {
	w := q.fh
	for _, s := range q.front[q.fh:] {
		if dead(s.ev) {
			q.n--
			continue
		}
		q.front[w] = s
		w++
	}
	if q.front = q.front[:w]; w == q.fh {
		q.front, q.fh = q.front[:0], 0
	}
	q.each(math.MaxUint64, func(b int) {
		bk := &q.b[b]
		wc, wi := bk.head, bk.lo
		bk.min = slot{key: math.MaxUint64}
		for c := bk.head; ; c = q.next[c] {
			lo, hi := uint32(0), uint32(chunkLen)
			if c == bk.head {
				lo = bk.lo
			}
			if c == bk.tail {
				hi = bk.hi
			}
			for _, s := range q.at(c)[lo:hi] {
				if dead(s.ev) {
					q.n--
					continue
				}
				if wi == chunkLen {
					wc, wi = q.next[wc], 0
				}
				q.at(wc)[wi] = s
				wi++
				if s.key < bk.min.key {
					bk.min = s
				}
			}
			if c == bk.tail {
				break
			}
		}
		for c := wc; c != bk.tail; {
			c = q.next[c]
			q.pool = append(q.pool, c)
		}
		if wc == bk.head && wi == bk.lo {
			q.release(b, wc)
			return
		}
		bk.tail, bk.tp, bk.hi = wc, q.at(wc), wi
	})
}
