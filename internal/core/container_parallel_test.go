package core

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/obs"
)

// buildStridedContainer lays down an N-1 strided checkpoint across enough
// writers to populate many hostdirs, so parallel ingest has real fan-out.
func buildStridedContainer(t testing.TB, b *MemBackend, path string, writers, recsPerWriter int, opts Options) {
	t.Helper()
	c, err := CreateContainer(b, path, opts)
	if err != nil {
		t.Fatal(err)
	}
	const rec = 512
	for w := 0; w < writers; w++ {
		wr, err := c.OpenWriter(int32(w))
		if err != nil {
			t.Fatal(err)
		}
		buf := bytes.Repeat([]byte{byte(w + 1)}, rec)
		for i := 0; i < recsPerWriter; i++ {
			if _, err := wr.WriteAt(buf, int64((i*writers+w)*rec)); err != nil {
				t.Fatal(err)
			}
		}
		if err := wr.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelIngestDeterministic is the acceptance check for parallel
// ingest: worker counts 1, 4, and GOMAXPROCS must produce identical
// GlobalIndex contents and byte-identical metrics snapshots.
func TestParallelIngestDeterministic(t *testing.T) {
	backend := NewMemBackend()
	buildStridedContainer(t, backend, "/ckpt", 24, 16, Options{NumHostdirs: 8})

	type result struct {
		extents []extent
		size    int64
		flat    []byte
		metrics []byte
	}
	open := func(workers int) result {
		reg := obs.NewRegistry()
		c, err := OpenContainer(backend, "/ckpt", Options{NumHostdirs: 8, IngestWorkers: workers, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.OpenReader()
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		flat := make([]byte, r.Size())
		if _, err := r.ReadAt(flat, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := reg.WriteJSON(&snap); err != nil {
			t.Fatal(err)
		}
		return result{extents: r.Index().extents, size: r.Size(), flat: flat, metrics: snap.Bytes()}
	}

	base := open(1)
	if len(base.extents) == 0 || base.size == 0 {
		t.Fatal("empty base index")
	}
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got := open(workers)
		if !reflect.DeepEqual(got.extents, base.extents) {
			t.Errorf("workers=%d: extent list differs from sequential ingest", workers)
		}
		if got.size != base.size || !bytes.Equal(got.flat, base.flat) {
			t.Errorf("workers=%d: resolved contents differ", workers)
		}
		if !bytes.Equal(got.metrics, base.metrics) {
			t.Errorf("workers=%d: metrics snapshots differ:\n%s\nvs\n%s", workers, got.metrics, base.metrics)
		}
	}
}

// TestOpenReaderConcurrently opens one container from many goroutines with
// parallel ingest enabled — the race-detector test for the worker pool.
func TestOpenReaderConcurrently(t *testing.T) {
	backend := NewMemBackend()
	buildStridedContainer(t, backend, "/ckpt", 16, 8, Options{NumHostdirs: 4})
	c, err := OpenContainer(backend, "/ckpt", Options{NumHostdirs: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := c.OpenReader()
			if err != nil {
				t.Error(err)
				return
			}
			defer r.Close()
			buf := make([]byte, 4096)
			for off := int64(0); off < r.Size(); off += int64(len(buf)) {
				if _, err := r.ReadAt(buf, off); err != nil && err != io.EOF {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestReaderConcurrentReadAt hammers one Reader from many goroutines; the
// scratch-buffer swap must keep concurrent reads independent.
func TestReaderConcurrentReadAt(t *testing.T) {
	backend := NewMemBackend()
	buildStridedContainer(t, backend, "/ckpt", 8, 8, Options{NumHostdirs: 4})
	c, err := OpenContainer(backend, "/ckpt", Options{NumHostdirs: 4})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.OpenReader()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 512)
			for i := 0; i < 200; i++ {
				off := int64((i*8 + g) % 60 * 512)
				if _, err := r.ReadAt(buf, off); err != nil && err != io.EOF {
					t.Error(err)
					return
				}
				if buf[0] == 0 {
					t.Errorf("read a hole byte at %d", off)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestReadAtSteadyStateAllocs asserts the cached-lookup read path is
// allocation-free once the scratch piece buffer is warm.
func TestReadAtSteadyStateAllocs(t *testing.T) {
	backend := NewMemBackend()
	buildStridedContainer(t, backend, "/ckpt", 8, 16, Options{NumHostdirs: 4})
	c, err := OpenContainer(backend, "/ckpt", Options{NumHostdirs: 4})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.OpenReader()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 16*512)
	if _, err := r.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err) // warm the scratch buffer
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := r.ReadAt(buf, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state ReadAt allocates %.1f objects/op, want 0", allocs)
	}
}

// TestWriteAtSteadyStateAllocs asserts that a warm append allocates
// nothing when its bytes fit in the current chunks of both logs: the
// backend copies into chunk space it already holds, and the writer
// encodes its data frame and index record into buffers it owns.
func TestWriteAtSteadyStateAllocs(t *testing.T) {
	const runs = 100
	for _, framed := range []bool{false, true} {
		t.Run(fmt.Sprintf("framed=%v", framed), func(t *testing.T) {
			b := NewMemBackend()
			c, err := CreateContainer(b, "/c", Options{NumHostdirs: 1, Framed: framed})
			if err != nil {
				t.Fatal(err)
			}
			w, err := c.OpenWriter(0)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			buf := make([]byte, 64)
			off := int64(0)
			write := func() {
				if _, err := w.WriteAt(buf, off); err != nil {
					t.Fatal(err)
				}
				off += 2 * int64(len(buf)) // strided, so no two entries coalesce
			}
			// Warm up until each log's last chunk has room for every
			// measured append, including AllocsPerRun's own warm-up call.
			hasRoom := func(path string, n int) bool {
				f := b.files[path]
				last := f.chunks[len(f.chunks)-1]
				return cap(last)-len(last) >= n
			}
			for !hasRoom("/c/hostdir.0/data.0", (runs+1)*(len(buf)+frameOverhead)) ||
				!hasRoom("/c/hostdir.0/index.0", (runs+1)*indexFrameSize) {
				write()
			}
			if allocs := testing.AllocsPerRun(runs, write); allocs != 0 {
				t.Errorf("steady-state WriteAt allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// TestScratchReuseCounter checks the allocs-avoided probe.
func TestScratchReuseCounter(t *testing.T) {
	reg := obs.NewRegistry()
	backend := NewMemBackend()
	buildStridedContainer(t, backend, "/ckpt", 4, 4, Options{NumHostdirs: 2})
	c, err := OpenContainer(backend, "/ckpt", Options{NumHostdirs: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.OpenReader()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 512)
	for i := 0; i < 5; i++ {
		if _, err := r.ReadAt(buf, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
	}
	// First read allocates the scratch buffer; the next four reuse it.
	if got := reg.Snapshot().Counters["plfs.lookup.scratch_reuse"]; got != 4 {
		t.Errorf("plfs.lookup.scratch_reuse = %d, want 4", got)
	}
}

func TestNegativeIngestWorkersRejected(t *testing.T) {
	b := NewMemBackend()
	if _, err := CreateContainer(b, "/c", Options{NumHostdirs: 1, IngestWorkers: -1}); err == nil {
		t.Fatal("negative IngestWorkers accepted")
	}
}

// shortReadFile returns at most chunk bytes per ReadAt with a nil error —
// legal for an io.ReaderAt-ish backend, and exactly the behavior that used
// to truncate index logs silently.
type shortReadFile struct {
	BackendFile
	chunk int
}

func (s shortReadFile) ReadAt(p []byte, off int64) (int, error) {
	if len(p) > s.chunk {
		p = p[:s.chunk]
	}
	return s.BackendFile.ReadAt(p, off)
}

// truncatedFile claims a larger size than its backing file holds, so reads
// past the real end hit io.EOF early.
type truncatedFile struct {
	BackendFile
	claim int64
}

func (tf truncatedFile) Size() int64 { return tf.claim }

func TestReadIndexLogToleratesShortReads(t *testing.T) {
	b := NewMemBackend()
	f, err := b.Create("/idx")
	if err != nil {
		t.Fatal(err)
	}
	want := make([]IndexEntry, 10)
	for i := range want {
		want[i] = IndexEntry{LogicalOffset: int64(i) * 64, Length: 64, Writer: 1, LogOffset: int64(i) * 64, Timestamp: uint64(i + 1)}
		var rec [indexEntrySize]byte
		want[i].encode(rec[:])
		if _, err := f.Write(rec[:]); err != nil {
			t.Fatal(err)
		}
	}
	// Odd chunk size: reads split mid-record.
	got, err := readIndexLog(shortReadFile{BackendFile: f, chunk: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("short-read decode = %+v, want %+v", got, want)
	}
}

func TestReadIndexLogRejectsTruncatedLog(t *testing.T) {
	b := NewMemBackend()
	f, err := b.Create("/idx")
	if err != nil {
		t.Fatal(err)
	}
	var rec [indexEntrySize]byte
	IndexEntry{Length: 1, Timestamp: 1}.encode(rec[:])
	if _, err := f.Write(rec[:]); err != nil {
		t.Fatal(err)
	}
	// Claim two records while only one is on disk: the old implementation
	// silently decoded a zero-filled second entry.
	if _, err := readIndexLog(truncatedFile{BackendFile: f, claim: 2 * indexEntrySize}); err == nil {
		t.Fatal("truncated index log not detected")
	}
}

// TestIngestErrorClosesOpenedFiles exercises the failure path of the
// worker pool: a missing data log must surface the error from every worker
// count without leaking handles or panicking.
func TestIngestErrorPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		backend := NewMemBackend()
		buildStridedContainer(t, backend, "/ckpt", 8, 2, Options{NumHostdirs: 4})
		// Corrupt one index log so decoding fails.
		hd := "/ckpt/" + fmt.Sprintf("%s%d", hostdirPrefix, 3)
		idx, err := backend.Open(fmt.Sprintf("%s/%s%d", hd, indexPrefix, 3))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := idx.Write([]byte{0xff}); err != nil { // no longer a record multiple
			t.Fatal(err)
		}
		idx.Close()
		c, err := OpenContainer(backend, "/ckpt", Options{NumHostdirs: 4, IngestWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.OpenReader(); err == nil {
			t.Fatalf("workers=%d: corrupt index log not reported", workers)
		}
	}
}
