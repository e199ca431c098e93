package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func newContainer(t *testing.T, opts Options) (*MemBackend, *Container) {
	t.Helper()
	b := NewMemBackend()
	c, err := CreateContainer(b, "/ckpt", opts)
	if err != nil {
		t.Fatal(err)
	}
	return b, c
}

func TestCreateOpenContainer(t *testing.T) {
	b, _ := newContainer(t, DefaultOptions())
	if !IsContainer(b, "/ckpt") {
		t.Fatal("IsContainer = false for a created container")
	}
	if _, err := OpenContainer(b, "/ckpt", DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenContainer(b, "/nope", DefaultOptions()); err == nil {
		t.Fatal("opening a non-container should fail")
	}
	if _, err := CreateContainer(b, "/ckpt", DefaultOptions()); err == nil {
		t.Fatal("re-creating an existing container should fail")
	}
}

func TestInvalidOptionsRejected(t *testing.T) {
	b := NewMemBackend()
	if _, err := CreateContainer(b, "/c", Options{NumHostdirs: 0}); err == nil {
		t.Fatal("zero hostdirs should be rejected")
	}
}

func TestSingleWriterRoundTrip(t *testing.T) {
	_, c := newContainer(t, DefaultOptions())
	w, err := c.OpenWriter(0)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("hello plfs container")
	if _, err := w.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := c.OpenReader()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Size() != int64(len(payload)) {
		t.Fatalf("Size = %d, want %d", r.Size(), len(payload))
	}
	got := make([]byte, len(payload))
	if _, err := r.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read %q, want %q", got, payload)
	}
}

func TestNTo1StridedPattern(t *testing.T) {
	// The canonical checkpoint pattern: N ranks write interleaved records
	// into one logical file. Verify the reassembled contents byte for byte.
	const (
		ranks   = 8
		recSize = 100
		recs    = 16
	)
	_, c := newContainer(t, DefaultOptions())
	for rank := 0; rank < ranks; rank++ {
		w, err := c.OpenWriter(int32(rank))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < recs; i++ {
			off := int64((i*ranks + rank) * recSize)
			rec := bytes.Repeat([]byte{byte('A' + rank)}, recSize)
			if _, err := w.WriteAt(rec, off); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	r, err := c.OpenReader()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want := int64(ranks * recs * recSize)
	if r.Size() != want {
		t.Fatalf("Size = %d, want %d", r.Size(), want)
	}
	buf := make([]byte, want)
	if _, err := r.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	for i := int64(0); i < want; i++ {
		rec := i / recSize
		rank := rec % ranks
		if buf[i] != byte('A'+rank) {
			t.Fatalf("byte %d = %c, want %c", i, buf[i], byte('A'+rank))
		}
	}
}

func TestConcurrentWritersFromGoroutines(t *testing.T) {
	// PLFS writers are independent by construction; hammer them from real
	// goroutines to verify handle/clock thread safety.
	const ranks = 16
	_, c := newContainer(t, DefaultOptions())
	var wg sync.WaitGroup
	for rank := 0; rank < ranks; rank++ {
		rank := rank
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := c.OpenWriter(int32(rank))
			if err != nil {
				t.Error(err)
				return
			}
			defer w.Close()
			for i := 0; i < 50; i++ {
				off := int64((i*ranks + rank) * 64)
				buf := bytes.Repeat([]byte{byte(rank)}, 64)
				if _, err := w.WriteAt(buf, off); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	r, err := c.OpenReader()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, want := r.Size(), int64(ranks*50*64); got != want {
		t.Fatalf("Size = %d, want %d", got, want)
	}
	buf := make([]byte, 64)
	for rec := 0; rec < ranks*50; rec++ {
		if _, err := r.ReadAt(buf, int64(rec*64)); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		wantByte := byte(rec % ranks)
		if buf[0] != wantByte || buf[63] != wantByte {
			t.Fatalf("record %d corrupted: got %d, want %d", rec, buf[0], wantByte)
		}
	}
}

func TestOverwriteSemantics(t *testing.T) {
	_, c := newContainer(t, DefaultOptions())
	w, _ := c.OpenWriter(0)
	w.WriteAt(bytes.Repeat([]byte{1}, 100), 0)
	w.WriteAt(bytes.Repeat([]byte{2}, 50), 25)
	w.Close()
	r, err := c.OpenReader()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 100)
	if _, err := r.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		want := byte(1)
		if i >= 25 && i < 75 {
			want = 2
		}
		if buf[i] != want {
			t.Fatalf("byte %d = %d, want %d", i, buf[i], want)
		}
	}
}

func TestSparseFileReadsZeros(t *testing.T) {
	_, c := newContainer(t, DefaultOptions())
	w, _ := c.OpenWriter(0)
	w.WriteAt([]byte{9}, 1000) // single byte at offset 1000
	w.Close()
	r, _ := c.OpenReader()
	defer r.Close()
	if r.Size() != 1001 {
		t.Fatalf("Size = %d, want 1001", r.Size())
	}
	buf := make([]byte, 1001)
	if _, err := r.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if buf[i] != 0 {
			t.Fatalf("hole byte %d = %d, want 0", i, buf[i])
		}
	}
	if buf[1000] != 9 {
		t.Fatalf("tail byte = %d, want 9", buf[1000])
	}
}

func TestReadAtEOFSemantics(t *testing.T) {
	_, c := newContainer(t, DefaultOptions())
	w, _ := c.OpenWriter(0)
	w.WriteAt([]byte("abc"), 0)
	w.Close()
	r, _ := c.OpenReader()
	defer r.Close()
	buf := make([]byte, 10)
	n, err := r.ReadAt(buf, 0)
	if n != 3 || err != io.EOF {
		t.Fatalf("short read = (%d, %v), want (3, EOF)", n, err)
	}
	if _, err := r.ReadAt(buf, 100); err != io.EOF {
		t.Fatalf("read past EOF err = %v, want EOF", err)
	}
}

func TestWriterReopenAppends(t *testing.T) {
	_, c := newContainer(t, DefaultOptions())
	w, _ := c.OpenWriter(5)
	w.WriteAt([]byte("1111"), 0)
	w.Close()
	w2, err := c.OpenWriter(5)
	if err != nil {
		t.Fatal(err)
	}
	w2.WriteAt([]byte("2222"), 4)
	w2.Close()
	r, _ := c.OpenReader()
	defer r.Close()
	buf := make([]byte, 8)
	if _, err := r.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "11112222" {
		t.Fatalf("contents = %q, want 11112222", buf)
	}
}

func TestDoubleOpenWriterFails(t *testing.T) {
	_, c := newContainer(t, DefaultOptions())
	if _, err := c.OpenWriter(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.OpenWriter(1); err == nil {
		t.Fatal("second live writer with same id should fail")
	}
}

func TestClosedHandleErrors(t *testing.T) {
	_, c := newContainer(t, DefaultOptions())
	w, _ := c.OpenWriter(0)
	w.Close()
	if _, err := w.WriteAt([]byte("x"), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("WriteAt on closed = %v, want ErrClosed", err)
	}
	if err := w.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double Close = %v, want ErrClosed", err)
	}
	if err := w.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync on closed = %v, want ErrClosed", err)
	}
}

func TestNegativeOffsetsRejected(t *testing.T) {
	_, c := newContainer(t, DefaultOptions())
	w, _ := c.OpenWriter(0)
	defer w.Close()
	if _, err := w.WriteAt([]byte("x"), -1); err == nil {
		t.Fatal("negative write offset accepted")
	}
	// A write whose end overflows int64 could never be read back.
	if _, err := w.WriteAt(make([]byte, 100), math.MaxInt64-5); err == nil {
		t.Fatal("write ending past math.MaxInt64 accepted")
	}
	w.WriteAt([]byte("x"), 0)
	w.Sync()
	r, _ := c.OpenReader()
	defer r.Close()
	if _, err := r.ReadAt(make([]byte, 1), -1); err == nil {
		t.Fatal("negative read offset accepted")
	}
	if r.Size() != 1 {
		t.Fatalf("Size = %d, want 1", r.Size())
	}
}

func TestCoalescedIndexShrinksButContentsIdentical(t *testing.T) {
	run := func(coalesce bool) (int64, []byte) {
		b := NewMemBackend()
		c, err := CreateContainer(b, "/c", Options{NumHostdirs: 4, CoalesceIndex: coalesce})
		if err != nil {
			t.Fatal(err)
		}
		w, _ := c.OpenWriter(0)
		// Sequential appends: maximally coalescible.
		for i := 0; i < 100; i++ {
			w.WriteAt(bytes.Repeat([]byte{byte(i)}, 64), int64(i*64))
		}
		_, entries, _ := w.Stats()
		w.Close()
		r, _ := c.OpenReader()
		defer r.Close()
		buf := make([]byte, 6400)
		if _, err := r.ReadAt(buf, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		return entries, buf
	}
	plainEntries, plainData := run(false)
	coEntries, coData := run(true)
	if coEntries >= plainEntries {
		t.Fatalf("coalesced entries %d, want < plain %d", coEntries, plainEntries)
	}
	if coEntries != 1 {
		t.Fatalf("sequential appends should coalesce to 1 entry, got %d", coEntries)
	}
	if !bytes.Equal(plainData, coData) {
		t.Fatal("coalescing changed file contents")
	}
}

func TestCoalescePendingVisibleAfterSync(t *testing.T) {
	b := NewMemBackend()
	c, _ := CreateContainer(b, "/c", Options{NumHostdirs: 2, CoalesceIndex: true})
	w, _ := c.OpenWriter(0)
	w.WriteAt([]byte("abcd"), 0)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	r, _ := c.OpenReader()
	defer r.Close()
	if r.Size() != 4 {
		t.Fatalf("Size = %d after Sync, want 4", r.Size())
	}
	w.Close()
}

func TestFlatten(t *testing.T) {
	b := closeFailBackend{Backend: NewMemBackend(), path: "/flat.lost"}
	c, err := CreateContainer(b, "/ckpt", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	w, _ := c.OpenWriter(0)
	payload := bytes.Repeat([]byte("0123456789"), 1000)
	w.WriteAt(payload, 0)
	w.Close()
	r, _ := c.OpenReader()
	defer r.Close()
	n, err := r.Flatten("/flat")
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(payload)) {
		t.Fatalf("Flatten wrote %d, want %d", n, len(payload))
	}
	f, err := b.Open("/flat")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("flattened contents differ")
	}
	// A destination whose final Close fails (a lost flush) fails Flatten.
	if _, err := r.Flatten("/flat.lost"); !errors.Is(err, errCloseFailed) {
		t.Fatalf("Flatten with failing Close = %v, want errCloseFailed", err)
	}
}

var errCloseFailed = errors.New("close failed")

// closeFailBackend hands out a file whose Close fails for path, as a
// backend does when the flush on close fails.
type closeFailBackend struct {
	Backend
	path string
}

func (b closeFailBackend) Create(path string) (BackendFile, error) {
	f, err := b.Backend.Create(path)
	if err != nil || path != b.path {
		return f, err
	}
	return closeFailFile{f}, nil
}

type closeFailFile struct{ BackendFile }

func (closeFailFile) Close() error { return errCloseFailed }

func TestHostdirSpreading(t *testing.T) {
	b, c := newContainer(t, Options{NumHostdirs: 4})
	for rank := 0; rank < 8; rank++ {
		w, err := c.OpenWriter(int32(rank))
		if err != nil {
			t.Fatal(err)
		}
		w.WriteAt([]byte("x"), 0)
		w.Close()
	}
	// Each of the 4 hostdirs should hold logs for 2 ranks (2 files each).
	for i := 0; i < 4; i++ {
		names, err := b.ReadDir(fmt.Sprintf("/ckpt/hostdir.%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != 4 { // 2 ranks x (data + index)
			t.Fatalf("hostdir.%d has %d entries, want 4: %v", i, len(names), names)
		}
	}
}

func TestWriterStats(t *testing.T) {
	_, c := newContainer(t, DefaultOptions())
	w, _ := c.OpenWriter(0)
	w.WriteAt(make([]byte, 100), 0)
	w.WriteAt(make([]byte, 50), 500)
	writes, entries, bytesOut := w.Stats()
	if writes != 2 || entries != 2 || bytesOut != 150 {
		t.Fatalf("Stats = (%d,%d,%d), want (2,2,150)", writes, entries, bytesOut)
	}
	w.Close()
}

// TestRandomWorkloadMatchesShadowModel cross-checks the container against a
// simple in-memory byte array under randomized concurrent-looking (but
// deterministically sequenced) writes.
func TestRandomWorkloadMatchesShadowModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := NewMemBackend()
		c, err := CreateContainer(b, "/c", Options{NumHostdirs: 3})
		if err != nil {
			return false
		}
		const space = 2000
		shadow := make([]byte, space)
		var maxEnd int64
		writers := make([]*Writer, 4)
		for i := range writers {
			writers[i], err = c.OpenWriter(int32(i))
			if err != nil {
				return false
			}
		}
		for op := 0; op < 60; op++ {
			wi := r.Intn(len(writers))
			off := int64(r.Intn(space - 100))
			n := r.Intn(100) + 1
			data := make([]byte, n)
			r.Read(data)
			if _, err := writers[wi].WriteAt(data, off); err != nil {
				return false
			}
			copy(shadow[off:off+int64(n)], data)
			if end := off + int64(n); end > maxEnd {
				maxEnd = end
			}
		}
		for _, w := range writers {
			if err := w.Close(); err != nil {
				return false
			}
		}
		rd, err := c.OpenReader()
		if err != nil {
			return false
		}
		defer rd.Close()
		if rd.Size() != maxEnd {
			return false
		}
		got := make([]byte, maxEnd)
		if _, err := rd.ReadAt(got, 0); err != nil && err != io.EOF {
			return false
		}
		return bytes.Equal(got, shadow[:maxEnd]) && rd.Index().CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMemBackendDirectorySemantics(t *testing.T) {
	b := NewMemBackend()
	if err := b.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if err := b.Mkdir("/a"); err == nil {
		t.Fatal("duplicate mkdir should fail")
	}
	if err := b.Mkdir("/missing/child"); err == nil {
		t.Fatal("mkdir under missing parent should fail")
	}
	if _, err := b.Create("/missing/f"); err == nil {
		t.Fatal("create under missing parent should fail")
	}
	if _, err := b.Open("/nope"); err == nil {
		t.Fatal("open of missing file should fail")
	}
	b.Create("/a/f1")
	b.Mkdir("/a/sub")
	b.Create("/a/sub/f2")
	names, err := b.ReadDir("/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "f1" || names[1] != "sub" {
		t.Fatalf("ReadDir(/a) = %v, want [f1 sub]", names)
	}
	if _, err := b.ReadDir("/a/f1"); err == nil {
		t.Fatal("ReadDir of a file should fail")
	}
}
