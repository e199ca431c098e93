package core

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/obs"
)

// newFaultyContainer builds a container over a FaultyBackend with retries
// enabled.
func newFaultyContainer(t *testing.T, opts Options) (*FaultyBackend, *Container) {
	t.Helper()
	fb := NewFaultyBackend(NewMemBackend())
	c, err := CreateContainer(fb, "/ckpt", opts)
	if err != nil {
		t.Fatal(err)
	}
	return fb, c
}

func retryOpts() Options {
	o := DefaultOptions()
	o.Retry = RetryPolicy{MaxRetries: 3, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}
	return o
}

func readBack(t *testing.T, c *Container, off, n int64) []byte {
	t.Helper()
	r, err := c.OpenReader()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, n)
	if _, err := r.ReadAt(buf, off); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	return buf
}

func TestTransientWriteErrorRetriedInPlace(t *testing.T) {
	fb, c := newFaultyContainer(t, retryOpts())
	w, err := c.OpenWriter(0)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("abc"), 100)
	fb.FailNextWrites = 2 // fewer than MaxRetries: recovers in place
	if _, err := w.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.FaultStats()
	if st.Retries == 0 {
		t.Fatal("transient failure recovered without counted retries")
	}
	if st.Failovers != 0 {
		t.Fatalf("in-place recovery failed over %d times", st.Failovers)
	}
	// 1ms + 2ms for the two retries of the capped exponential schedule.
	if want := 3 * time.Millisecond; st.Backoff != want {
		t.Fatalf("backoff = %v, want %v", st.Backoff, want)
	}
	if got := readBack(t, c, 0, int64(len(payload))); !bytes.Equal(got, payload) {
		t.Fatal("read-back mismatch after retried write")
	}
}

func TestPersistentWriteErrorFailsOverToNewGeneration(t *testing.T) {
	fb, c := newFaultyContainer(t, retryOpts())
	w, err := c.OpenWriter(3)
	if err != nil {
		t.Fatal(err)
	}
	before := []byte("written before the storage failed")
	if _, err := w.WriteAt(before, 0); err != nil {
		t.Fatal(err)
	}
	after := []byte("written after failover")
	// Exhaust every in-place retry: the data append fails 1+MaxRetries
	// times, forcing a generation switch.
	fb.FailNextWrites = 1 + c.opts.Retry.MaxRetries
	if _, err := w.WriteAt(after, int64(len(before))); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if g := w.Generation(); g != 1 {
		t.Fatalf("generation = %d, want 1", g)
	}
	if st := w.FaultStats(); st.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", st.Failovers)
	}
	want := append(append([]byte(nil), before...), after...)
	if got := readBack(t, c, 0, int64(len(want))); !bytes.Equal(got, want) {
		t.Fatalf("read-back mismatch across generations: %q", got)
	}
}

func TestPartialAppendBytesDroppedAndReadsStayCorrect(t *testing.T) {
	fb, c := newFaultyContainer(t, retryOpts())
	w, err := c.OpenWriter(0)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 4096)
	fb.FailNextWrites = 1
	fb.PartialBytes = 100 // the failed append tears 100 bytes into the log
	if _, err := w.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	more := bytes.Repeat([]byte{0xCD}, 512)
	if _, err := w.WriteAt(more, int64(len(payload))); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st := w.FaultStats(); st.DroppedBytes != 100 {
		t.Fatalf("dropped bytes = %d, want 100", st.DroppedBytes)
	}
	want := append(append([]byte(nil), payload...), more...)
	if got := readBack(t, c, 0, int64(len(want))); !bytes.Equal(got, want) {
		t.Fatal("read-back mismatch after dropped partial append")
	}
}

func TestZeroRetryPolicySurfacesFirstError(t *testing.T) {
	fb, c := newFaultyContainer(t, DefaultOptions())
	w, err := c.OpenWriter(0)
	if err != nil {
		t.Fatal(err)
	}
	fb.FailNextWrites = 1
	if _, err := w.WriteAt([]byte("x"), 0); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want the injected error", err)
	}
}

func TestFailoverBlockedByCreateErrorSurfaces(t *testing.T) {
	fb, c := newFaultyContainer(t, retryOpts())
	w, err := c.OpenWriter(0)
	if err != nil {
		t.Fatal(err)
	}
	fb.FailNextWrites = 1 + c.opts.Retry.MaxRetries
	fb.FailCreates = 2 // the new generation's logs cannot be created
	if _, err := w.WriteAt([]byte("x"), 0); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want the injected error", err)
	}
}

func TestIndexAppendErrorAlsoFailsOver(t *testing.T) {
	// Coalescing defers the index append to Sync, so failures armed there
	// hit the index log specifically: the entry must land in the new
	// generation's index log while still naming the data log that holds
	// its bytes.
	o := retryOpts()
	o.CoalesceIndex = true
	fb, c := newFaultyContainer(t, o)
	w, err := c.OpenWriter(0)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("indexed data")
	if _, err := w.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	fb.FailNextWrites = 1 + c.opts.Retry.MaxRetries
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st := w.FaultStats(); st.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", st.Failovers)
	}
	if got := readBack(t, c, 0, int64(len(payload))); !bytes.Equal(got, payload) {
		t.Fatalf("read-back mismatch after index failover: %q", got)
	}
}

func TestCoalescingDoesNotMergeAcrossGenerations(t *testing.T) {
	o := retryOpts()
	o.CoalesceIndex = true
	fb, c := newFaultyContainer(t, o)
	w, err := c.OpenWriter(0)
	if err != nil {
		t.Fatal(err)
	}
	a := bytes.Repeat([]byte{1}, 256)
	b := bytes.Repeat([]byte{2}, 256)
	if _, err := w.WriteAt(a, 0); err != nil {
		t.Fatal(err)
	}
	fb.FailNextWrites = 1 + c.opts.Retry.MaxRetries
	if _, err := w.WriteAt(b, 256); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte(nil), a...), b...)
	if got := readBack(t, c, 0, 512); !bytes.Equal(got, want) {
		t.Fatal("read-back mismatch for coalesced writes across a failover")
	}
}

func TestTruncatedDataLogSurfacesTypedError(t *testing.T) {
	b := NewMemBackend()
	c, err := CreateContainer(b, "/ckpt", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.OpenWriter(0)
	if err != nil {
		t.Fatal(err)
	}
	// Forge a crashed writer: the index entry claims 64 bytes but the
	// data log holds only 16 (the index append outlived the data append).
	short := truncatingBackendFile{w.data}
	w.data = short
	if _, err := w.WriteAt(bytes.Repeat([]byte{7}, 64), 0); err != nil {
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
	buf := make([]byte, 64)
	if _, err := r.ReadAt(buf, 0); !errors.Is(err, ErrTruncatedLog) {
		t.Fatalf("err = %v, want ErrTruncatedLog", err)
	}
}

// truncatingBackendFile persists only the first 16 bytes of each append
// while reporting full success — a write lost in a dying server's cache.
type truncatingBackendFile struct {
	BackendFile
}

func (f truncatingBackendFile) Write(p []byte) (int, error) {
	keep := p
	if len(keep) > 16 {
		keep = keep[:16]
	}
	if _, err := f.BackendFile.Write(keep); err != nil {
		return 0, err
	}
	return len(p), nil
}

func TestRetriesVisibleInMetricsRegistry(t *testing.T) {
	o := retryOpts()
	reg := obs.NewRegistry()
	o.Metrics = reg
	fb, c := newFaultyContainer(t, o)
	w, err := c.OpenWriter(0)
	if err != nil {
		t.Fatal(err)
	}
	fb.FailNextWrites = 1 + c.opts.Retry.MaxRetries
	if _, err := w.WriteAt([]byte("counted"), 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if s.Counters["plfs.write.retries"] == 0 {
		t.Fatal("plfs.write.retries not counted")
	}
	if s.Counters["plfs.write.failovers"] != 1 {
		t.Fatalf("plfs.write.failovers = %d, want 1", s.Counters["plfs.write.failovers"])
	}
}

// TestTornAppendWithoutRetriesKeepsLaterWrites tears a data append under
// the zero retry policy. The torn append's error surfaces, and the write
// after it must read back exactly: a torn append ends the generation
// under every policy, so the later write lands on fresh logs at a
// truthful offset instead of after bytes no entry accounts for.
func TestTornAppendWithoutRetriesKeepsLaterWrites(t *testing.T) {
	for _, tc := range []struct {
		name           string
		framed, verify bool
	}{{"v1", false, false}, {"v2", true, false}, {"v2_verify", true, true}} {
		t.Run(tc.name, func(t *testing.T) {
			mb := NewMemBackend()
			fb := NewFaultyBackend(mb)
			c, err := CreateContainer(fb, "/c", Options{NumHostdirs: 1, Framed: tc.framed})
			if err != nil {
				t.Fatal(err)
			}
			w, err := c.OpenWriter(0)
			if err != nil {
				t.Fatal(err)
			}
			a, b, d := bytes.Repeat([]byte{1}, 100), bytes.Repeat([]byte{2}, 100), bytes.Repeat([]byte{3}, 100)
			if _, err := w.WriteAt(a, 0); err != nil {
				t.Fatal(err)
			}
			fb.FailNextWrites, fb.PartialBytes = 1, 10
			if _, err := w.WriteAt(b, 100); !errors.Is(err, errInjected) {
				t.Fatalf("torn append: err = %v, want the injected error", err)
			}
			if _, err := w.WriteAt(d, 200); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			c2, err := OpenContainer(mb, "/c", Options{NumHostdirs: 1, VerifyOnOpen: tc.verify})
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
			}{{0, a}, {200, d}} {
				got := make([]byte, len(x.want))
				if _, err := r.ReadAt(got, x.off); err != nil && err != io.EOF {
					t.Fatalf("read at %d: %v", x.off, err)
				}
				if !bytes.Equal(got, x.want) {
					t.Fatalf("read at %d differs from the acknowledged write", x.off)
				}
			}
			if st := w.FaultStats(); st.DroppedBytes != 10 || st.Failovers != 1 {
				t.Fatalf("fault stats %+v, want 10 dropped bytes and one failover", st)
			}
		})
	}
}

// TestFailedFailoverRefusesLaterAppends tears a framed data append while
// the failover it forces cannot create its logs. The old data log then
// ends in a torn frame, so the writer must refuse every later append
// with the failover's error rather than land (and acknowledge) a frame
// after the torn one, which a VerifyOnOpen pass would truncate away.
func TestFailedFailoverRefusesLaterAppends(t *testing.T) {
	mb := NewMemBackend()
	fb := NewFaultyBackend(mb)
	c, err := CreateContainer(fb, "/c", Options{NumHostdirs: 1, Framed: true, Retry: RetryPolicy{MaxRetries: 2}})
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.OpenWriter(0)
	if err != nil {
		t.Fatal(err)
	}
	a := bytes.Repeat([]byte{1}, 100)
	if _, err := w.WriteAt(a, 0); err != nil {
		t.Fatal(err)
	}
	fb.FailNextWrites, fb.PartialBytes, fb.FailCreates = 1, 10, 1
	if _, err := w.WriteAt(bytes.Repeat([]byte{2}, 100), 100); !errors.Is(err, errInjected) {
		t.Fatalf("torn append with a failed failover: err = %v, want the injected error", err)
	}
	writes := fb.Writes
	for i := 0; i < 2; i++ {
		if _, err := w.WriteAt(bytes.Repeat([]byte{3}, 100), 200); !errors.Is(err, errInjected) {
			t.Fatalf("append %d after the failed failover: err = %v, want the failover's error", i, err)
		}
	}
	if fb.Writes != writes {
		t.Fatalf("a broken writer made %d more appends, want none", fb.Writes-writes)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenContainer(mb, "/c", Options{NumHostdirs: 1, VerifyOnOpen: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c2.OpenReader()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if rep := r.FsckReport(); rep.TornBytes != 10 || rep.QuarantinedExtents != 0 {
		t.Fatalf("fsck %+v, want the 10 torn bytes only", *rep)
	}
	if r.Size() != int64(len(a)) {
		t.Fatalf("size = %d, want %d: only the write before the tear was acknowledged", r.Size(), len(a))
	}
	got := make([]byte, len(a))
	if _, err := r.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, a) {
		t.Fatal("the write before the tear reads back other bytes")
	}
}
