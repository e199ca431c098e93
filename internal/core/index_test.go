package core

import (
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func entry(off, length int64, writer int32, logOff int64, ts uint64) IndexEntry {
	return IndexEntry{LogicalOffset: off, Length: length, Writer: writer, LogOffset: logOff, Timestamp: ts}
}

func TestIndexEntryEncodeDecodeRoundTrip(t *testing.T) {
	e := entry(123456789, 4096, 42, 98765, 777)
	var buf [indexEntrySize]byte
	e.encode(buf[:])
	if got := decodeEntry(buf[:]); got != e {
		t.Fatalf("round trip = %+v, want %+v", got, e)
	}
}

func TestGlobalIndexSimpleDisjoint(t *testing.T) {
	g := BuildGlobalIndex([]IndexEntry{
		entry(0, 10, 1, 0, 1),
		entry(20, 10, 2, 0, 2),
	})
	if g.Size() != 30 {
		t.Fatalf("Size = %d, want 30", g.Size())
	}
	if g.NumExtents() != 2 {
		t.Fatalf("NumExtents = %d, want 2", g.NumExtents())
	}
	pieces := g.Lookup(0, 30)
	// extent, hole, extent
	if len(pieces) != 3 || pieces[1].Writer != -1 || pieces[1].Length != 10 {
		t.Fatalf("pieces = %+v", pieces)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalIndexLastWriterWins(t *testing.T) {
	g := BuildGlobalIndex([]IndexEntry{
		entry(0, 100, 1, 0, 1),
		entry(40, 20, 2, 0, 2), // newer write punches the middle
	})
	pieces := g.Lookup(0, 100)
	if len(pieces) != 3 {
		t.Fatalf("pieces = %+v, want 3", pieces)
	}
	if pieces[0].Writer != 1 || pieces[0].Length != 40 {
		t.Fatalf("prefix = %+v", pieces[0])
	}
	if pieces[1].Writer != 2 || pieces[1].Length != 20 {
		t.Fatalf("middle = %+v", pieces[1])
	}
	if pieces[2].Writer != 1 || pieces[2].LogOff != 60 || pieces[2].Length != 40 {
		t.Fatalf("suffix = %+v (log offset must account for the split)", pieces[2])
	}
}

func TestGlobalIndexTimestampOrderNotInsertOrder(t *testing.T) {
	// Entries arrive out of timestamp order (as they do when merging many
	// index logs); the higher timestamp must still win.
	a := []IndexEntry{
		entry(0, 50, 1, 0, 9), // newer, listed first
		entry(0, 50, 2, 0, 3), // older
	}
	g := BuildGlobalIndex(a)
	pieces := g.Lookup(0, 50)
	if len(pieces) != 1 || pieces[0].Writer != 1 {
		t.Fatalf("pieces = %+v, want single extent owned by writer 1", pieces)
	}
}

func TestGlobalIndexExactOverwrite(t *testing.T) {
	g := BuildGlobalIndex([]IndexEntry{
		entry(10, 30, 1, 0, 1),
		entry(10, 30, 2, 0, 2),
	})
	pieces := g.Lookup(10, 30)
	if len(pieces) != 1 || pieces[0].Writer != 2 {
		t.Fatalf("pieces = %+v", pieces)
	}
	if g.NumExtents() != 1 {
		t.Fatalf("NumExtents = %d, want 1", g.NumExtents())
	}
}

func TestGlobalIndexChainedOverlaps(t *testing.T) {
	g := BuildGlobalIndex([]IndexEntry{
		entry(0, 30, 1, 0, 1),
		entry(20, 30, 2, 0, 2),
		entry(40, 30, 3, 0, 3),
	})
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	pieces := g.Lookup(0, 70)
	want := []struct {
		w int32
		n int64
	}{{1, 20}, {2, 20}, {3, 30}}
	if len(pieces) != len(want) {
		t.Fatalf("pieces = %+v", pieces)
	}
	for i, w := range want {
		if pieces[i].Writer != w.w || pieces[i].Length != w.n {
			t.Fatalf("piece %d = %+v, want writer %d len %d", i, pieces[i], w.w, w.n)
		}
	}
}

func TestLookupPartialRange(t *testing.T) {
	g := BuildGlobalIndex([]IndexEntry{entry(100, 100, 7, 500, 1)})
	pieces := g.Lookup(150, 20)
	if len(pieces) != 1 {
		t.Fatalf("pieces = %+v", pieces)
	}
	p := pieces[0]
	if p.Logical != 150 || p.Length != 20 || p.LogOff != 550 {
		t.Fatalf("piece = %+v, want logical 150 len 20 logOff 550", p)
	}
}

func TestLookupBeyondEOFIsHole(t *testing.T) {
	g := BuildGlobalIndex([]IndexEntry{entry(0, 10, 1, 0, 1)})
	pieces := g.Lookup(50, 10)
	if len(pieces) != 1 || pieces[0].Writer != -1 {
		t.Fatalf("pieces = %+v, want one hole", pieces)
	}
	if g.Lookup(0, 0) != nil {
		t.Fatal("zero-length lookup should be nil")
	}
}

func TestCoalesceMergesContiguous(t *testing.T) {
	// Sequential appends by one writer: N entries collapse to 1.
	var entries []IndexEntry
	for i := int64(0); i < 10; i++ {
		entries = append(entries, entry(i*100, 100, 3, i*100, uint64(i+1)))
	}
	g := BuildGlobalIndex(entries)
	if g.NumExtents() != 10 {
		t.Fatalf("pre-coalesce extents = %d, want 10", g.NumExtents())
	}
	g.Coalesce()
	if g.NumExtents() != 1 {
		t.Fatalf("post-coalesce extents = %d, want 1", g.NumExtents())
	}
	pieces := g.Lookup(0, 1000)
	if len(pieces) != 1 || pieces[0].Length != 1000 {
		t.Fatalf("pieces = %+v", pieces)
	}
}

func TestCoalesceDoesNotMergeDifferentWriters(t *testing.T) {
	g := BuildGlobalIndex([]IndexEntry{
		entry(0, 100, 1, 0, 1),
		entry(100, 100, 2, 0, 2),
	})
	g.Coalesce()
	if g.NumExtents() != 2 {
		t.Fatalf("extents = %d, want 2 (different writers must not merge)", g.NumExtents())
	}
}

// referenceModel computes the expected logical contents byte-by-byte.
func referenceModel(entries []IndexEntry) map[int64]int32 {
	owner := map[int64]int32{}
	ts := map[int64]uint64{}
	for _, e := range entries {
		for b := e.LogicalOffset; b < e.LogicalOffset+e.Length; b++ {
			if e.Timestamp >= ts[b] {
				ts[b] = e.Timestamp
				owner[b] = e.Writer
			}
		}
	}
	return owner
}

func TestGlobalIndexMatchesReferenceModelProperty(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nOps)%40 + 1
		var entries []IndexEntry
		for i := 0; i < n; i++ {
			off := int64(r.Intn(200))
			length := int64(r.Intn(50) + 1)
			entries = append(entries, entry(off, length, int32(r.Intn(5)), int64(i)*1000, uint64(i+1)))
		}
		g := BuildGlobalIndex(entries)
		if g.CheckInvariants() != nil {
			return false
		}
		want := referenceModel(entries)
		for _, p := range g.Lookup(0, g.Size()) {
			for b := p.Logical; b < p.Logical+p.Length; b++ {
				w, written := want[b]
				if p.Writer == -1 {
					if written {
						return false
					}
				} else if !written || w != p.Writer {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestLookupCoversRequestedRangeExactlyProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var entries []IndexEntry
		for i := 0; i < 20; i++ {
			entries = append(entries, entry(int64(r.Intn(500)), int64(r.Intn(64)+1), int32(i), int64(i*64), uint64(i+1)))
		}
		g := BuildGlobalIndex(entries)
		off := int64(r.Intn(600))
		length := int64(r.Intn(200) + 1)
		cur := off
		for _, p := range g.Lookup(off, length) {
			if p.Logical != cur || p.Length <= 0 {
				return false
			}
			cur += p.Length
		}
		return cur == off+length
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptIndexLogDetected(t *testing.T) {
	b := NewMemBackend()
	f, err := b.Create("/idx")
	if err != nil {
		t.Fatal(err)
	}
	f.Write(make([]byte, indexEntrySize+3)) // not a record multiple
	if _, err := readIndexLog(f); err == nil {
		t.Fatal("corrupt index log not detected")
	}

	// v1 records carry no checksum: a flipped bit can yield a record no
	// WriteAt accepts, which must fail the open rather than read as zeros.
	b, c := newContainer(t, DefaultOptions())
	w, _ := c.OpenWriter(0)
	w.WriteAt([]byte("hello"), 0)
	w.Close()
	// Byte 7 is the top byte of the first record's LogicalOffset.
	if err := b.CorruptRange("/ckpt/hostdir.0/index.0", 7, 1); err != nil {
		t.Fatal(err)
	}
	if r, err := c.OpenReader(); err == nil {
		r.Close()
		t.Fatalf("OpenReader accepted a record at offset %d", r.Index().extents[0].logical)
	}

	// Byte 27 is the top byte of the first record's LogOffset: the flip
	// makes it negative, which the read path cannot fetch from.
	b, c = newContainer(t, DefaultOptions())
	w, _ = c.OpenWriter(0)
	w.WriteAt([]byte("hello world"), 0)
	w.Close()
	if err := b.CorruptRange("/ckpt/hostdir.0/index.0", 27, 1); err != nil {
		t.Fatal(err)
	}
	if r, err := c.OpenReader(); err == nil {
		_, rerr := r.ReadAt(make([]byte, 11), 0)
		r.Close()
		t.Fatalf("OpenReader accepted a record at log offset %d (ReadAt: %v)", r.Index().extents[0].logOff, rerr)
	}

	bad := []IndexEntry{
		entry(0, -1, 1, 0, 1),                // negative length
		entry(math.MaxInt64-5, 100, 1, 0, 1), // end past math.MaxInt64
		entry(0, 1, 1, -1, 1),                // negative log offset
		entry(0, 100, 1, math.MaxInt64-5, 1), // log end past math.MaxInt64
	}
	for _, e := range bad {
		f, _ := b.Create("/idx")
		var rec [indexEntrySize]byte
		e.encode(rec[:])
		f.Write(rec[:])
		if _, err := readIndexLog(f); err == nil {
			t.Errorf("record %+v accepted", e)
		}
	}
	// A v2 frame's checksum cannot vouch for a range its writer never
	// produced: the strict decoder fails it, the lenient one drops it.
	for _, e := range bad {
		frame := encodeEntryRecord(new([indexFrameSize]byte), e, true)
		if _, _, _, err := decodeFramedIndexLog(frame, true); !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("strict decode of frame %+v: err %v, want ErrCorruptFrame", e, err)
		}
		if es, dropped, _, err := decodeFramedIndexLog(frame, false); err != nil || len(es) != 0 || dropped != 1 {
			t.Errorf("lenient decode of frame %+v: %d entries, %d dropped, err %v; want it dropped", e, len(es), dropped, err)
		}
	}

	// The backend rejects a negative read offset instead of slicing with it.
	f, _ = b.Open("/ckpt/hostdir.0/data.0")
	if n, err := f.ReadAt(make([]byte, 1), -1); n != 0 || err == nil || err == io.EOF {
		t.Errorf("ReadAt at -1 = %d, %v; want 0 and a non-EOF error", n, err)
	}
}
