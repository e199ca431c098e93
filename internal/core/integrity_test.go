package core

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"testing"
)

// goldenLogicalSHA/goldenBackingSHA pin the exact bytes a deterministic v1
// container produced before the integrity layer existed (captured from the
// pre-PR tree). If either changes, the legacy unframed path is no longer
// byte-identical — version negotiation leaked v2 behaviour into v1.
const (
	goldenLogicalSHA  = "cdd933cc063fffdc917f232dc2ac79896c0fea980f872244b13864e821f6bfd2"
	goldenLogicalSize = 13478
	goldenBackingSHA  = "a3e3f2a4716df9138efff967dfd88614b54c47b960dcfa2b58b95cb3fe671a08"
	goldenBackingN    = 7
)

// buildGoldenV1 reproduces the fixed workload the golden hashes were
// captured from: 3 writers, 40 strided writes each, v1 (unframed) format.
func buildGoldenV1(t *testing.T) (*MemBackend, *Container) {
	t.Helper()
	b := NewMemBackend()
	c, err := CreateContainer(b, "/g", Options{NumHostdirs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for w := int32(0); w < 3; w++ {
		wr, err := c.OpenWriter(w)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			buf := make([]byte, 100+int(w)*7)
			for j := range buf {
				buf[j] = byte(int(w)*31 + i*7 + j)
			}
			if _, err := wr.WriteAt(buf, int64(i*3)*int64(len(buf))+int64(w)*13); err != nil {
				t.Fatal(err)
			}
		}
		if err := wr.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return b, c
}

// walkBackingFiles lists every file under dir in sorted DFS order.
func walkBackingFiles(t *testing.T, b *MemBackend, dir string) []string {
	t.Helper()
	names, err := b.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	var paths []string
	for _, n := range names {
		p := dir + "/" + n
		if f, err := b.Open(p); err == nil {
			f.Close()
			paths = append(paths, p)
		} else {
			paths = append(paths, walkBackingFiles(t, b, p)...)
		}
	}
	return paths
}

// TestV1ContainerBytesMatchPrePRGolden pins the legacy format: both the
// resolved logical contents and every backing log byte of a v1 container
// must match the hashes captured before framing existed.
func TestV1ContainerBytesMatchPrePRGolden(t *testing.T) {
	b, c := buildGoldenV1(t)
	r, err := c.OpenReader()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Size() != goldenLogicalSize {
		t.Fatalf("logical size = %d, want %d", r.Size(), goldenLogicalSize)
	}
	out := make([]byte, r.Size())
	if _, err := r.ReadAt(out, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(out)); got != goldenLogicalSHA {
		t.Fatalf("logical sha256 = %s, want %s", got, goldenLogicalSHA)
	}
	paths := walkBackingFiles(t, b, "/g")
	if len(paths) != goldenBackingN {
		t.Fatalf("backing files = %d, want %d: %v", len(paths), goldenBackingN, paths)
	}
	h := sha256.New()
	for _, p := range paths {
		f, err := b.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, f.Size())
		if _, err := f.ReadAt(data, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		f.Close()
		fmt.Fprintf(h, "%s\n", p)
		h.Write(data)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != goldenBackingSHA {
		t.Fatalf("backing sha256 = %s, want %s", got, goldenBackingSHA)
	}
}

// framedContainer creates a v2 container with one hostdir (so log paths
// are predictable in corruption tests).
func framedContainer(t *testing.T, opts Options) (*MemBackend, *Container) {
	t.Helper()
	opts.Framed = true
	if opts.NumHostdirs == 0 {
		opts.NumHostdirs = 1
	}
	b := NewMemBackend()
	c, err := CreateContainer(b, "/c", opts)
	if err != nil {
		t.Fatal(err)
	}
	return b, c
}

// writeRecords appends deterministic records through writer 0 and returns
// the expected logical contents.
func writeRecords(t *testing.T, c *Container, n, size int) []byte {
	t.Helper()
	w, err := c.OpenWriter(0)
	if err != nil {
		t.Fatal(err)
	}
	logical := make([]byte, n*size)
	for i := 0; i < n; i++ {
		buf := make([]byte, size)
		for j := range buf {
			buf[j] = byte(i*37 + j)
		}
		copy(logical[i*size:], buf)
		if _, err := w.WriteAt(buf, int64(i*size)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return logical
}

// TestFramedRoundTrip checks that a v2 container resolves the same logical
// bytes as v1 would, that the version is renegotiated from the access file
// on open, and that a clean verify pass reports nothing to repair.
func TestFramedRoundTrip(t *testing.T) {
	b, c := framedContainer(t, Options{})
	want := writeRecords(t, c, 5, 64)

	// Reopen without the Framed flag: the access file, not the option,
	// decides the format.
	c2, err := OpenContainer(b, "/c", Options{NumHostdirs: 1, VerifyOnOpen: true})
	if err != nil {
		t.Fatal(err)
	}
	if c2.version != 2 {
		t.Fatalf("reopened version = %d, want 2", c2.version)
	}
	r, err := c2.OpenReader()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := make([]byte, r.Size())
	if _, err := r.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("framed round trip: logical contents differ")
	}
	rep := r.FsckReport()
	if rep == nil {
		t.Fatal("VerifyOnOpen produced no fsck report")
	}
	if !rep.Clean() {
		t.Fatalf("clean container reported damage: %+v", *rep)
	}
	// 5 data frames + 5 index frames, each checksum-verified.
	if rep.FramesVerified != 10 {
		t.Fatalf("FramesVerified = %d, want 10", rep.FramesVerified)
	}
}

// TestVerifyOnOpenQuarantinesCorruptData flips bits inside a data frame's
// payload and checks the damaged extent is quarantined: reads overlapping
// it fail with ErrCorruptExtent, reads elsewhere still return good bytes.
func TestVerifyOnOpenQuarantinesCorruptData(t *testing.T) {
	const nRec, recSize = 4, 128
	b, c := framedContainer(t, Options{})
	want := writeRecords(t, c, nRec, recSize)

	// Record 1's frame starts at 1*(recSize+frameOverhead); its payload
	// frameHeaderSize later.
	frameStart := int64(recSize + frameOverhead)
	if err := b.CorruptRange("/c/hostdir.0/data.0", frameStart+frameHeaderSize+10, 3); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenContainer(b, "/c", Options{NumHostdirs: 1, VerifyOnOpen: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c2.OpenReader()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rep := r.FsckReport()
	if rep.QuarantinedExtents != 1 || rep.QuarantinedBytes != recSize {
		t.Fatalf("quarantine = %d extents / %d bytes, want 1 / %d", rep.QuarantinedExtents, rep.QuarantinedBytes, recSize)
	}

	// The read overlapping the quarantined extent must fail typed.
	buf := make([]byte, recSize)
	if _, err := r.ReadAt(buf, recSize); !errors.Is(err, ErrCorruptExtent) {
		t.Fatalf("read of corrupt extent: err = %v, want ErrCorruptExtent", err)
	}
	// A single byte inside it fails too — no partial delivery.
	one := make([]byte, 1)
	if _, err := r.ReadAt(one, recSize+10); !errors.Is(err, ErrCorruptExtent) {
		t.Fatalf("1-byte read of corrupt extent: err = %v, want ErrCorruptExtent", err)
	}
	// Untouched records still read clean.
	if _, err := r.ReadAt(buf, 2*recSize); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != string(want[2*recSize:3*recSize]) {
		t.Fatal("clean record's bytes changed")
	}
}

// TestVerifyOnOpenDropsCorruptIndexFrames damages one index frame: the
// lenient pass drops just that record (the fixed frame size keeps the
// walk in sync), while a strict open fails with ErrCorruptFrame.
func TestVerifyOnOpenDropsCorruptIndexFrames(t *testing.T) {
	const nRec, recSize = 3, 64
	b, c := framedContainer(t, Options{})
	want := writeRecords(t, c, nRec, recSize)

	// Corrupt the payload of index frame 1.
	if err := b.CorruptRange("/c/hostdir.0/index.0", int64(indexFrameSize+frameHeaderSize+2), 1); err != nil {
		t.Fatal(err)
	}

	// Strict open (no verify): the corruption is an error, not bad data.
	cStrict, err := OpenContainer(b, "/c", Options{NumHostdirs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cStrict.OpenReader(); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("strict open of corrupt index: err = %v, want ErrCorruptFrame", err)
	}

	// Lenient open: record 1 is dropped, its logical range reads as a hole.
	cv, err := OpenContainer(b, "/c", Options{NumHostdirs: 1, VerifyOnOpen: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := cv.OpenReader()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if rep := r.FsckReport(); rep.RecordsDropped != 1 {
		t.Fatalf("RecordsDropped = %d, want 1", rep.RecordsDropped)
	}
	buf := make([]byte, recSize)
	if _, err := r.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != string(want[:recSize]) {
		t.Fatal("surviving record 0 changed")
	}
	if _, err := r.ReadAt(buf, recSize); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	for i, v := range buf {
		if v != 0 {
			t.Fatalf("dropped record read byte %d = %d, want 0 (hole)", i, v)
		}
	}
}

// TestVerifyOnOpenTruncatesTornTails appends partial-frame garbage to both
// logs (a crashed writer's torn appends) and checks the verify pass cuts
// them so a later strict open succeeds.
func TestVerifyOnOpenTruncatesTornTails(t *testing.T) {
	b, c := framedContainer(t, Options{})
	writeRecords(t, c, 2, 32)
	for _, p := range []string{"/c/hostdir.0/data.0", "/c/hostdir.0/index.0"} {
		f, err := b.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0xFF, 0x01, 0x02, 0x03, 0x04}); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	rep, err := Fsck(b, "/c", Options{NumHostdirs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornBytes != 10 {
		t.Fatalf("TornBytes = %d, want 10", rep.TornBytes)
	}
	if rep.RecordsDropped != 0 || rep.QuarantinedExtents != 0 {
		t.Fatalf("unexpected damage beyond torn tails: %+v", *rep)
	}

	// The tails are gone: a strict open now parses every log cleanly.
	cs, err := OpenContainer(b, "/c", Options{NumHostdirs: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := cs.OpenReader()
	if err != nil {
		t.Fatalf("strict open after fsck: %v", err)
	}
	r.Close()
}

// TestFramedPartialAppendFailsOver drives a framed writer into a partial
// data append: the writer must abandon the torn generation rather than
// retry in place, and the verify pass must account the torn bytes while
// every acknowledged write stays readable.
func TestFramedPartialAppendFailsOver(t *testing.T) {
	const recSize = 96
	mb := NewMemBackend()
	fb := NewFaultyBackend(mb)
	c, err := CreateContainer(fb, "/c", Options{
		NumHostdirs: 1,
		Framed:      true,
		Retry:       RetryPolicy{MaxRetries: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.OpenWriter(0)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 3*recSize)
	for i := 0; i < 3; i++ {
		buf := make([]byte, recSize)
		for j := range buf {
			buf[j] = byte(i*53 + j)
		}
		copy(want[i*recSize:], buf)
		if i == 1 {
			// Tear this frame: 10 payload bytes land, then the device dies.
			fb.FailNextWrites, fb.PartialBytes = 1, 10
		}
		if _, err := w.WriteAt(buf, int64(i*recSize)); err != nil {
			t.Fatal(err)
		}
	}
	if w.FaultStats().Failovers != 1 {
		t.Fatalf("Failovers = %d, want 1 (partial frame must not retry in place)", w.FaultStats().Failovers)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenContainer(fb, "/c", Options{NumHostdirs: 1, VerifyOnOpen: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c2.OpenReader()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if rep := r.FsckReport(); rep.TornBytes != 10 || !(rep.QuarantinedExtents == 0 && rep.RecordsDropped == 0) {
		t.Fatalf("fsck after torn failover: %+v, want 10 torn bytes only", *r.FsckReport())
	}
	got := make([]byte, len(want))
	if _, err := r.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("acknowledged writes lost across torn-frame failover")
	}
}

// TestFramedCoalescedFailoverKeepsDataFrame tears a framed data append
// while a coalesced index entry is still pending. The failover appends
// that entry's record to the new index log before the writer re-appends
// the torn data frame to the new data log, so the two must be encoded in
// separate buffers: both writes must read back.
func TestFramedCoalescedFailoverKeepsDataFrame(t *testing.T) {
	fb := NewFaultyBackend(NewMemBackend())
	c, err := CreateContainer(fb, "/c", Options{
		NumHostdirs:   1,
		Framed:        true,
		CoalesceIndex: true,
		Retry:         RetryPolicy{MaxRetries: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.OpenWriter(0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := make([]byte, 100), make([]byte, 100)
	for i := range a {
		a[i], b[i] = byte(i), byte(255-i)
	}
	if _, err := w.WriteAt(a, 0); err != nil { // stays pending
		t.Fatal(err)
	}
	// Tear b's frame: 10 bytes land, then the device dies.
	fb.FailNextWrites, fb.PartialBytes = 1, 10
	if _, err := w.WriteAt(b, 1000); err != nil {
		t.Fatal(err)
	}
	if st := w.FaultStats(); st.Failovers != 1 {
		t.Fatalf("Failovers = %d, want 1", st.Failovers)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenContainer(fb, "/c", Options{NumHostdirs: 1, VerifyOnOpen: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c2.OpenReader()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, x := range []struct {
		off  int64
		want []byte
	}{{0, a}, {1000, b}} {
		got := make([]byte, len(x.want))
		if _, err := r.ReadAt(got, x.off); err != nil && err != io.EOF {
			t.Fatalf("read at %d: %v (fsck %+v)", x.off, err, *r.FsckReport())
		}
		if string(got) != string(x.want) {
			t.Fatalf("read at %d differs from the acknowledged write (fsck %+v)", x.off, *r.FsckReport())
		}
	}
}

// TestTruncatedReadDeliversNoFabricatedBytes is the zero-fill regression
// pin: when a data log is shorter than its index claims, reads must fail
// with ErrTruncatedLog and deliver zero bytes — never a silently
// zero-filled buffer.
func TestTruncatedReadDeliversNoFabricatedBytes(t *testing.T) {
	b := NewMemBackend()
	c, err := CreateContainer(b, "/c", Options{NumHostdirs: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.OpenWriter(0)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i + 1) // no zero bytes, so fabrication is detectable
	}
	if _, err := w.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Cut the data log mid-extent, as a crash between the index append
	// becoming durable and the data append completing would.
	f, err := b.Open("/c/hostdir.0/data.0")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.(Truncator).Truncate(100); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := c.OpenReader()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 256)
	n, err := r.ReadAt(buf, 0)
	if !errors.Is(err, ErrTruncatedLog) {
		t.Fatalf("read past truncation: n=%d err=%v, want ErrTruncatedLog", n, err)
	}
	if n != 0 {
		t.Fatalf("read returned %d bytes alongside the error; corrupt reads must deliver nothing", n)
	}
	// A read entirely within the surviving prefix still works.
	if _, err := r.ReadAt(buf[:100], 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf[:100]) != string(payload[:100]) {
		t.Fatal("surviving prefix changed")
	}
}

// FuzzDecodeIndexFrames mutates a valid framed index log with byte flips
// and truncations: the strict decoder must return entries or a typed
// ErrCorruptFrame (never panic), and the lenient decoder must never
// produce an entry that was not in the original log.
func FuzzDecodeIndexFrames(f *testing.F) {
	var valid []byte
	orig := make(map[IndexEntry]bool)
	for i := 0; i < 4; i++ {
		e := IndexEntry{
			LogicalOffset: int64(i * 100),
			Length:        100,
			Writer:        int32(i),
			LogOffset:     int64(i * 100),
			Timestamp:     uint64(i + 1),
		}
		orig[e] = true
		valid = append(valid, encodeEntryRecord(new([indexFrameSize]byte), e, true)...)
	}
	f.Add(valid, uint16(0), byte(0))
	f.Add(valid, uint16(50), byte(0xFF))
	f.Add(valid[:len(valid)-3], uint16(7), byte(1))
	f.Fuzz(func(t *testing.T, data []byte, pos uint16, flip byte) {
		buf := append([]byte(nil), data...)
		if len(buf) > 0 {
			buf[int(pos)%len(buf)] ^= flip
		}
		entries, dropped, torn, err := decodeFramedIndexLog(buf, false)
		if err != nil {
			t.Fatalf("lenient decode errored: %v", err)
		}
		for _, e := range entries {
			if !orig[e] && flip != 0 {
				// A surviving entry must be one of the originals unless the
				// flip landed outside every frame we fed in (different data).
				if string(data) == string(valid) {
					t.Fatalf("lenient decode fabricated entry %+v", e)
				}
			}
		}
		if want := int64(len(buf)) % indexFrameSize; torn != want {
			t.Fatalf("torn = %d, want %d", torn, want)
		}
		if int64(len(entries))+dropped != int64(len(buf))/indexFrameSize {
			t.Fatalf("entries+dropped = %d, want %d frames", int64(len(entries))+dropped, int64(len(buf))/indexFrameSize)
		}
		if _, _, _, serr := decodeFramedIndexLog(buf, true); serr != nil && !errors.Is(serr, ErrCorruptFrame) {
			t.Fatalf("strict decode returned untyped error: %v", serr)
		}
		// The data-frame walker must hold its invariants on arbitrary bytes.
		quar, frames, clean := verifyDataFrames(buf)
		if clean < 0 || clean > int64(len(buf)) || frames < int64(len(quar)) {
			t.Fatalf("verifyDataFrames invariants broken: quar=%d frames=%d clean=%d", len(quar), frames, clean)
		}
	})
}

// TestAppendFrameLayout pins the frame wire format so torn-tail arithmetic
// in other tests stays honest.
func TestAppendFrameLayout(t *testing.T) {
	payload := []byte("abcdef")
	frame := appendFrame(nil, payload)
	if len(frame) != frameOverhead+len(payload) {
		t.Fatalf("frame length = %d, want %d", len(frame), frameOverhead+len(payload))
	}
	if got := binary.LittleEndian.Uint32(frame); got != uint32(len(payload)) {
		t.Fatalf("length field = %d, want %d", got, len(payload))
	}
	if string(frame[frameHeaderSize:frameHeaderSize+len(payload)]) != string(payload) {
		t.Fatal("payload not in place")
	}
}
