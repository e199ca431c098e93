package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
)

// IndexEntry records one logical write: logical byte range -> position in a
// writer's data log, stamped with a logical timestamp for last-writer-wins
// resolution. Entries are fixed-size binary records appended to the
// writer's index log.
type IndexEntry struct {
	LogicalOffset int64  // offset in the logical file
	Length        int64  // bytes written
	Writer        int32  // writer (rank/pid) id
	LogOffset     int64  // offset within the writer's data log
	Timestamp     uint64 // container-wide logical clock
}

// indexEntrySize is the on-log size of a serialized IndexEntry.
const indexEntrySize = 8 + 8 + 4 + 8 + 8

func (e IndexEntry) encode(buf []byte) {
	binary.LittleEndian.PutUint64(buf[0:], uint64(e.LogicalOffset))
	binary.LittleEndian.PutUint64(buf[8:], uint64(e.Length))
	binary.LittleEndian.PutUint32(buf[16:], uint32(e.Writer))
	binary.LittleEndian.PutUint64(buf[20:], uint64(e.LogOffset))
	binary.LittleEndian.PutUint64(buf[28:], e.Timestamp)
}

// validRange reports whether e maps a range some WriteAt could have
// written: a non-negative length at non-negative logical and log
// offsets, neither end past math.MaxInt64. The merge relies on every
// logical range being 0 <= start <= end, and the read path on every log
// offset being one it can read at.
func (e IndexEntry) validRange() bool {
	return e.Length >= 0 &&
		e.LogicalOffset >= 0 && e.LogicalOffset <= math.MaxInt64-e.Length &&
		e.LogOffset >= 0 && e.LogOffset <= math.MaxInt64-e.Length
}

func decodeEntry(buf []byte) IndexEntry {
	return IndexEntry{
		LogicalOffset: int64(binary.LittleEndian.Uint64(buf[0:])),
		Length:        int64(binary.LittleEndian.Uint64(buf[8:])),
		Writer:        int32(binary.LittleEndian.Uint32(buf[16:])),
		LogOffset:     int64(binary.LittleEndian.Uint64(buf[20:])),
		Timestamp:     binary.LittleEndian.Uint64(buf[28:]),
	}
}

// readAll reads an entire backend file into memory. ReadAt is retried
// until the whole file is in: a backend may legally return fewer bytes
// than asked alongside a nil or io.EOF error, and silently accepting a
// partial buffer would fabricate content. what names the file's role in
// error messages ("index log", "data log", "access file").
func readAll(f BackendFile, what string) ([]byte, error) {
	size := f.Size()
	buf := make([]byte, size)
	for got := int64(0); got < size; {
		n, err := f.ReadAt(buf[got:], got)
		got += int64(n)
		if got >= size {
			break
		}
		switch {
		case err == io.EOF:
			return nil, fmt.Errorf("plfs: short %s read: %d of %d bytes", what, got, size)
		case err != nil:
			return nil, err
		case n == 0:
			return nil, fmt.Errorf("plfs: %s read stalled at %d of %d bytes: %w", what, got, size, io.ErrNoProgress)
		}
	}
	return buf, nil
}

// readIndexLog decodes every entry in a v1 (unframed) index log.
func readIndexLog(f BackendFile) ([]IndexEntry, error) {
	size := f.Size()
	if size%indexEntrySize != 0 {
		return nil, fmt.Errorf("plfs: corrupt index log: %d bytes not a record multiple", size)
	}
	buf, err := readAll(f, "index log")
	if err != nil {
		return nil, err
	}
	entries := make([]IndexEntry, 0, size/indexEntrySize)
	for off := int64(0); off < size; off += indexEntrySize {
		e := decodeEntry(buf[off : off+indexEntrySize])
		// v1 records carry no checksum, so a flipped bit can turn a write
		// into a range no WriteAt accepts. Such a record is corruption.
		if !e.validRange() {
			return nil, fmt.Errorf("plfs: corrupt index log: record %d maps %d bytes at offset %d from log offset %d",
				off/indexEntrySize, e.Length, e.LogicalOffset, e.LogOffset)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// extent is a resolved, non-overlapping slice of the logical file mapping
// to one writer's data log.
type extent struct {
	logical int64 // logical start
	length  int64
	writer  int32
	logOff  int64 // start within the writer's data log
}

func (x extent) end() int64 { return x.logical + x.length }

// GlobalIndex is the merged, conflict-resolved view of every writer's
// index log: a sorted list of disjoint extents. Lookups binary-search it.
type GlobalIndex struct {
	extents []extent
	size    int64
	entries int // raw entries merged (before overlap resolution)
}

// priorityLess is the last-writer-wins total order: the entry with the
// larger timestamp wins overlaps (ties broken by writer id, then log
// offset, then logical offset and length, for determinism).
func priorityLess(a, b IndexEntry) bool {
	if a.Timestamp != b.Timestamp {
		return a.Timestamp < b.Timestamp
	}
	if a.Writer != b.Writer {
		return a.Writer < b.Writer
	}
	if a.LogOffset != b.LogOffset {
		return a.LogOffset < b.LogOffset
	}
	if a.LogicalOffset != b.LogicalOffset {
		return a.LogicalOffset < b.LogicalOffset
	}
	return a.Length < b.Length
}

// entryHeap is a hand-rolled max-heap of IndexEntry keyed by priorityLess.
// container/heap would box every pushed entry into an interface; at a
// million entries per merge that is a million avoidable allocations.
type entryHeap struct {
	es []IndexEntry
	// limit is the size at which expire next filters out dead entries.
	limit int
}

// minExpireLimit keeps the filtering in expire from running on every
// boundary while the heap is tiny.
const minExpireLimit = 8

func (h *entryHeap) push(e IndexEntry) {
	h.es = append(h.es, e)
	i := len(h.es) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !priorityLess(h.es[p], e) {
			break
		}
		h.es[i] = h.es[p]
		i = p
	}
	h.es[i] = e
}

func (h *entryHeap) pop() {
	n := len(h.es) - 1
	h.es[0] = h.es[n]
	h.es = h.es[:n]
	h.down(0)
}

func (h *entryHeap) down(i int) {
	n := len(h.es)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && priorityLess(h.es[big], h.es[l]) {
			big = l
		}
		if r < n && priorityLess(h.es[big], h.es[r]) {
			big = r
		}
		if big == i {
			return
		}
		h.es[i], h.es[big] = h.es[big], h.es[i]
		i = big
	}
}

// expire removes entries that end at or before pos; they can never own a
// later segment. Dead entries at the top are popped at once. Dead entries
// below the top are the common case, not the exception: under the
// container clock an N-1 checkpoint's every entry beats all entries at
// lower offsets, so it sifts up to the root and the dead ones beneath it
// would never surface. So whenever the heap has doubled since it was last
// filtered, the dead entries are filtered out and the rest re-heapified.
// Each filtering costs O(size) and follows at least size/2 pushes, which
// makes it amortized O(1) per entry and keeps the heap within twice the
// largest set of live entries.
func (h *entryHeap) expire(pos int64) {
	for len(h.es) > 0 && h.es[0].LogicalOffset+h.es[0].Length <= pos {
		h.pop()
	}
	if len(h.es) < h.limit {
		return
	}
	h.es = slices.DeleteFunc(h.es, func(e IndexEntry) bool { return e.LogicalOffset+e.Length <= pos })
	for i := len(h.es)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	h.limit = max(2*len(h.es), minExpireLimit)
}

// sortLive returns the positive-length entries ordered by LogicalOffset,
// leaving entries untouched. OpenReader concatenates the writers' index
// logs, and in a checkpoint each log ascends (a rank writes its records
// in offset order), so one pass finds k long runs and a k-way merge
// orders them in O(n log k). Input in no useful order splits into runs of
// a few entries and the merge degrades to O(n log n), about 1.7x the time
// of slices.SortFunc at 2^20 random entries; no caller produces such
// input, so there is no second ordering path for it. Entries with equal
// offsets may come out in any order: the sweep pushes every entry
// starting at a boundary before it reads the heap top, so their order
// cannot change the result.
func sortLive(entries []IndexEntry) []IndexEntry {
	var runs []int // index of each run's first entry
	n := 0
	var last int64
	for i, e := range entries {
		if e.Length <= 0 {
			continue
		}
		if n == 0 || e.LogicalOffset < last {
			runs = append(runs, i)
		}
		n++
		last = e.LogicalOffset
	}
	return mergeRuns(make([]IndexEntry, 0, n), entries, runs)
}

// runCursor is one ascending run's read position in a k-way merge: the
// run's remaining entries are entries[next:end], and key caches
// entries[next].LogicalOffset.
type runCursor struct {
	key       int64
	next, end int
}

// mergeRuns appends to dst the positive-length entries of the ascending
// runs starting at runs[i] (each run ends where the next begins), in
// LogicalOffset order. A min-heap of run cursors yields the next entry in
// O(log k) for k runs.
func mergeRuns(dst, entries []IndexEntry, runs []int) []IndexEntry {
	h := make([]runCursor, len(runs))
	for i, start := range runs {
		end := len(entries)
		if i+1 < len(runs) {
			end = runs[i+1]
		}
		h[i] = runCursor{key: entries[start].LogicalOffset, next: start, end: end}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftCursor(h, i)
	}
	for len(h) > 0 {
		c := &h[0]
		dst = append(dst, entries[c.next])
		c.next++
		for c.next < c.end && entries[c.next].Length <= 0 {
			c.next++
		}
		if c.next < c.end {
			c.key = entries[c.next].LogicalOffset
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftCursor(h, 0)
	}
	return dst
}

// siftCursor restores the min-heap order of h below index i.
func siftCursor(h []runCursor, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h[l].key < h[small].key {
			small = l
		}
		if r < n && h[r].key < h[small].key {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// BuildGlobalIndex merges raw entries, resolving overlaps so that the entry
// with the larger timestamp wins (ties broken by writer id, then log
// offset, for determinism). This is the "read-back" step PLFS defers from
// write time to read time.
//
// The merge is a single sweep: entries are ordered by logical offset
// (sortLive), the sweep visits every entry boundary left to right keeping
// the entries covering the current position in a max-heap ordered by
// priorityLess, and the heap top owns each inter-boundary segment.
// Consecutive segments owned by the same entry are emitted as one extent,
// which reproduces the previous per-entry overlay implementation
// bit-for-bit (an entry's surviving fragments are maximal runs of its
// ownership) without its quadratic slice copying. On a checkpoint's
// index, whose writer logs are long ascending runs, the ordering is a
// k-way merge and the heap stays small, so the build is near-linear.
func BuildGlobalIndex(entries []IndexEntry) *GlobalIndex {
	g := &GlobalIndex{entries: len(entries)}
	live := sortLive(entries)
	if len(live) == 0 {
		return g
	}
	// Every entry start and end is a sweep boundary; segment ownership is
	// constant between consecutive boundaries.
	bounds := make([]int64, 0, 2*len(live))
	for _, e := range live {
		bounds = append(bounds, e.LogicalOffset, e.LogicalOffset+e.Length)
	}
	slices.Sort(bounds)
	bounds = slices.Compact(bounds)
	g.size = bounds[len(bounds)-1]

	g.extents = make([]extent, 0, len(live))
	active := entryHeap{es: make([]IndexEntry, 0, minExpireLimit), limit: minExpireLimit}
	next := 0 // next live entry to activate
	var prev IndexEntry
	prevValid := false
	for bi := 0; bi+1 < len(bounds); bi++ {
		pos, segEnd := bounds[bi], bounds[bi+1]
		for next < len(live) && live[next].LogicalOffset == pos {
			active.push(live[next])
			next++
		}
		active.expire(pos)
		if len(active.es) == 0 {
			prevValid = false // a hole; the next extent cannot extend across it
			continue
		}
		w := active.es[0]
		if prevValid && w == prev {
			g.extents[len(g.extents)-1].length += segEnd - pos
			continue
		}
		g.extents = append(g.extents, extent{
			logical: pos,
			length:  segEnd - pos,
			writer:  w.Writer,
			logOff:  w.LogOffset + (pos - w.LogicalOffset),
		})
		prev, prevValid = w, true
	}
	return g
}

// Size returns the logical file size (highest written byte + 1).
func (g *GlobalIndex) Size() int64 { return g.size }

// NumExtents reports resolved extents; NumEntries reports raw entries
// merged. Their ratio measures index fragmentation.
func (g *GlobalIndex) NumExtents() int { return len(g.extents) }

// NumEntries reports the raw entry count before resolution.
func (g *GlobalIndex) NumEntries() int { return g.entries }

// Lookup maps the logical range [off, off+length) to data-log pieces.
// Ranges not covered by any write are returned as holes (writer < 0).
type Piece struct {
	Logical int64
	Length  int64
	Writer  int32 // -1 for a hole (reads as zeros)
	LogOff  int64
}

// Lookup resolves a logical range into an ordered piece list covering it
// exactly. The output slice is sized up front from the number of extents
// the range overlaps; callers that resolve repeatedly should prefer
// LookupAppend with a reused buffer.
func (g *GlobalIndex) Lookup(off, length int64) []Piece {
	if length <= 0 {
		return nil
	}
	lo := sort.Search(len(g.extents), func(i int) bool {
		return g.extents[i].end() > off
	})
	hi := sort.Search(len(g.extents), func(i int) bool {
		return g.extents[i].logical >= off+length
	})
	// k overlapping extents resolve to at most k pieces plus k+1 holes.
	return g.LookupAppend(make([]Piece, 0, 2*(hi-lo)+1), off, length)
}

// LookupAppend appends the pieces covering [off, off+length) to dst and
// returns the extended slice, allocating only when dst lacks capacity.
// Adjacent pieces that are contiguous in both logical space and the same
// writer's log are coalesced into one piece (as are adjacent holes), so a
// reader issues one backend read per contiguous log run.
func (g *GlobalIndex) LookupAppend(dst []Piece, off, length int64) []Piece {
	if length <= 0 {
		return dst
	}
	end := off + length
	i := sort.Search(len(g.extents), func(i int) bool {
		return g.extents[i].end() > off
	})
	cur := off
	for ; i < len(g.extents) && cur < end; i++ {
		x := g.extents[i]
		if x.logical >= end {
			break
		}
		if x.logical > cur {
			dst = appendPiece(dst, Piece{Logical: cur, Length: x.logical - cur, Writer: -1})
			cur = x.logical
		}
		from := cur - x.logical
		n := x.end() - cur
		if n > end-cur {
			n = end - cur
		}
		dst = appendPiece(dst, Piece{Logical: cur, Length: n, Writer: x.writer, LogOff: x.logOff + from})
		cur += n
	}
	if cur < end {
		dst = appendPiece(dst, Piece{Logical: cur, Length: end - cur, Writer: -1})
	}
	return dst
}

// appendPiece adds p to dst, merging it into the final piece when the two
// form one contiguous run (same writer, adjacent logically, and — for real
// pieces — adjacent in the data log).
func appendPiece(dst []Piece, p Piece) []Piece {
	if n := len(dst); n > 0 {
		last := &dst[n-1]
		if last.Writer == p.Writer && last.Logical+last.Length == p.Logical &&
			(p.Writer < 0 || last.LogOff+last.Length == p.LogOff) {
			last.Length += p.Length
			return dst
		}
	}
	return append(dst, p)
}

// Coalesce merges adjacent extents that are contiguous in both logical
// space and the same writer's log. This is the index-compression ablation
// the PLFS follow-on work explored ("compress read-back indexes").
func (g *GlobalIndex) Coalesce() {
	if len(g.extents) < 2 {
		return
	}
	out := g.extents[:1]
	for _, x := range g.extents[1:] {
		last := &out[len(out)-1]
		if last.writer == x.writer &&
			last.end() == x.logical &&
			last.logOff+last.length == x.logOff {
			last.length += x.length
			continue
		}
		out = append(out, x)
	}
	g.extents = out
}

// CheckInvariants verifies the extent list is sorted and non-overlapping.
func (g *GlobalIndex) CheckInvariants() error {
	for i := 1; i < len(g.extents); i++ {
		prev, cur := g.extents[i-1], g.extents[i]
		if cur.logical < prev.end() {
			return fmt.Errorf("plfs: overlapping extents %d..%d and %d..%d",
				prev.logical, prev.end(), cur.logical, cur.end())
		}
	}
	for _, x := range g.extents {
		if x.length <= 0 {
			return fmt.Errorf("plfs: non-positive extent length %d", x.length)
		}
	}
	return nil
}
