//lint:allowfile goroutine -- sanctioned site: PLFS containers are written by N uncoordinated ranks concurrently; per-writer locks and the bounded ingest pool are the product, not an accident

package core

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Container names within a PLFS container directory.
const (
	hostdirPrefix = "hostdir."
	dataPrefix    = "data."
	indexPrefix   = "index."
	accessFile    = ".plfsaccess"
)

// Options tunes container layout.
type Options struct {
	// NumHostdirs spreads per-writer logs over this many subdirectories to
	// avoid metadata hot-spotting on one directory (PLFS's hostdir
	// mechanism). Must be >= 1.
	NumHostdirs int

	// CoalesceIndex, when true, merges contiguous same-writer index
	// entries at write time, shrinking the index logs (an ablation of the
	// follow-on index-compression work).
	CoalesceIndex bool

	// IngestWorkers bounds the goroutines decoding hostdir index logs in
	// OpenReader. 0 means runtime.GOMAXPROCS(0). Results are merged in
	// hostdir order, so the GlobalIndex is identical for any worker count.
	IngestWorkers int

	// Metrics, when non-nil, receives the container's counters (writes,
	// index entries, merge sizes, read-resolution fan-out) under the
	// "plfs." prefix. Nil disables instrumentation at the cost of one
	// branch per probe site.
	Metrics *obs.Registry

	// Retry governs writer recovery from backend append errors (see
	// faults.go). The zero value surfaces the first error unchanged.
	Retry RetryPolicy

	// Framed selects the v2 checksummed log format at CreateContainer:
	// every data and index record is length-prefixed and crc32c-trailed
	// (see frame.go), enabling VerifyOnOpen recovery. The format is
	// recorded in the access file, so an existing container keeps the
	// format it was created with regardless of this flag.
	Framed bool

	// VerifyOnOpen runs the plfsck recovery pass while OpenReader scans
	// a v2 container: index frames failing their checksum are dropped,
	// torn log tails truncated (where the backend supports Truncator),
	// and data frames failing their checksum quarantined — reads
	// overlapping them return ErrCorruptExtent. A v1 container has no
	// checksums to verify, so the flag is inert there.
	VerifyOnOpen bool
}

// DefaultOptions matches the PLFS defaults: 32 hostdirs, no write-time
// coalescing.
func DefaultOptions() Options { return Options{NumHostdirs: 32} }

func (o Options) validate() error {
	if o.NumHostdirs < 1 {
		return fmt.Errorf("plfs: NumHostdirs %d < 1", o.NumHostdirs)
	}
	if o.IngestWorkers < 0 {
		return fmt.Errorf("plfs: IngestWorkers %d < 0", o.IngestWorkers)
	}
	return nil
}

// ingestWorkers resolves the effective worker count for n index logs.
func (o Options) ingestWorkers(n int) int {
	w := o.IngestWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// Container is an open PLFS container: the middleware's representation of
// one logical file. Concurrent writers each obtain their own Writer; a
// Reader merges all logs.
type Container struct {
	backend Backend
	path    string
	opts    Options
	clock   atomic.Uint64

	// version is the container's negotiated log format: 1 appends bare
	// records (the legacy byte-identical path), 2 frames every record
	// with a length prefix and crc32c trailer.
	version int

	mu      sync.Mutex
	writers map[int32]*Writer

	// Instrument handles (nil without Options.Metrics).
	cWrites        *obs.Counter
	cBytesData     *obs.Counter
	cIndexEntries  *obs.Counter
	cReads         *obs.Counter
	cMerges        *obs.Counter
	cMergedEntries *obs.Counter
	cMergedExtents *obs.Counter
	cIngestLogs    *obs.Counter
	cLookupReuse   *obs.Counter
	cRetries       *obs.Counter
	cFailovers     *obs.Counter
	cDropped       *obs.Counter
	hReadFanout    *obs.Histogram

	// Integrity instrument handles, registered only under VerifyOnOpen
	// so verification-free snapshots stay byte-identical.
	cFramesOK   *obs.Counter
	cDroppedRec *obs.Counter
	cTornBytes  *obs.Counter
	cQuarExt    *obs.Counter
	cQuarReads  *obs.Counter
}

// instrument wires the container's probe handles from Options.Metrics.
// Counter names are container-independent so that a run over many
// containers aggregates naturally.
func (c *Container) instrument() *Container {
	reg := c.opts.Metrics
	if reg == nil {
		return c
	}
	c.cWrites = reg.Counter("plfs.writes")
	c.cBytesData = reg.Counter("plfs.bytes_data")
	c.cIndexEntries = reg.Counter("plfs.index.entries")
	c.cReads = reg.Counter("plfs.reads")
	c.cMerges = reg.Counter("plfs.index.merges")
	c.cMergedEntries = reg.Counter("plfs.index.entries_merged")
	c.cMergedExtents = reg.Counter("plfs.index.extents_resolved")
	// Ingest width and scratch-buffer reuse are worker-count-independent,
	// so snapshots stay byte-identical across IngestWorkers settings (the
	// actual goroutine count is reported by tooling, not the registry).
	c.cIngestLogs = reg.Counter("plfs.index.ingest.logs")
	c.cLookupReuse = reg.Counter("plfs.lookup.scratch_reuse")
	c.cRetries = reg.Counter("plfs.write.retries")
	c.cFailovers = reg.Counter("plfs.write.failovers")
	c.cDropped = reg.Counter("plfs.write.dropped_bytes")
	c.hReadFanout = reg.Histogram("plfs.read.fanout", obs.CountBuckets())
	if c.opts.VerifyOnOpen {
		c.cFramesOK = reg.Counter("plfs.integrity.frames_verified")
		c.cDroppedRec = reg.Counter("plfs.integrity.records_dropped")
		c.cTornBytes = reg.Counter("plfs.integrity.torn_bytes")
		c.cQuarExt = reg.Counter("plfs.integrity.quarantined_extents")
		c.cQuarReads = reg.Counter("plfs.integrity.quarantined_reads")
	}
	return c
}

// CreateContainer makes a new container directory tree on the backend.
func CreateContainer(b Backend, path string, opts Options) (*Container, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if b.Exists(path) {
		return nil, fmt.Errorf("%w: %s", ErrExist, path)
	}
	if err := b.Mkdir(path); err != nil {
		return nil, err
	}
	for i := 0; i < opts.NumHostdirs; i++ {
		if err := b.Mkdir(fmt.Sprintf("%s/%s%d", path, hostdirPrefix, i)); err != nil {
			return nil, err
		}
	}
	// The access file marks the directory as a PLFS container (it is what
	// makes the container look like a regular file through the FUSE
	// interface) and records the negotiated log format version.
	version := 1
	if opts.Framed {
		version = 2
	}
	f, err := b.Create(path + "/" + accessFile)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write([]byte(fmt.Sprintf("plfs container v%d\n", version))); err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	c := &Container{backend: b, path: path, opts: opts, version: version, writers: make(map[int32]*Writer)}
	return c.instrument(), nil
}

// containerVersion parses the access file's signature line. Legacy
// containers predating versioned signatures read as v1.
func containerVersion(b Backend, path string) (int, error) {
	f, err := b.Open(path + "/" + accessFile)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	buf, err := readAll(f, "access file")
	if err != nil {
		return 0, err
	}
	if len(buf) == 0 {
		return 1, nil
	}
	var v int
	if n, err := fmt.Sscanf(string(buf), "plfs container v%d", &v); err != nil || n != 1 {
		return 0, fmt.Errorf("plfs: unrecognized container signature %q", string(buf))
	}
	if v < 1 || v > 2 {
		return 0, fmt.Errorf("plfs: unsupported container version %d", v)
	}
	return v, nil
}

// OpenContainer opens an existing container, negotiating the log format
// from its access file.
func OpenContainer(b Backend, path string, opts Options) (*Container, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if !b.Exists(path + "/" + accessFile) {
		return nil, fmt.Errorf("%w: %s is not a PLFS container", ErrNotExist, path)
	}
	version, err := containerVersion(b, path)
	if err != nil {
		return nil, err
	}
	c := &Container{backend: b, path: path, opts: opts, version: version, writers: make(map[int32]*Writer)}
	return c.instrument(), nil
}

// IsContainer reports whether path holds a PLFS container.
func IsContainer(b Backend, path string) bool {
	return b.Exists(path + "/" + accessFile)
}

// Path returns the container's backing path.
func (c *Container) Path() string { return c.path }

func (c *Container) hostdir(writer int32) string {
	return fmt.Sprintf("%s/%s%d", c.path, hostdirPrefix, int(writer)%c.opts.NumHostdirs)
}

// Writer is one process's (rank's) write handle: an append-only data log
// plus an append-only index log. Writers never coordinate with each other —
// that independence is the whole point of PLFS.
type Writer struct {
	c       *Container
	id      int32
	data    BackendFile
	index   BackendFile
	dataOff int64
	closed  bool

	// gen counts failovers; logID (= logKey(id, gen)) names the current
	// generation's log pair and stamps new index entries, so entries from
	// all generations merge like independent writers (see faults.go).
	gen    int32
	logID  int32
	faults WriterFaultStats

	// broken is the error of a failover that failed. The writer's logs
	// may end in torn bytes, so every later append returns it.
	broken error

	// pending is the not-yet-flushed last entry when coalescing.
	pending   *IndexEntry
	mu        sync.Mutex
	nWrites   int64
	nEntries  int64
	bytesData int64

	// frame and rec are the writer's own encode buffers, reused by every
	// append because a backend copies what it is handed: frame holds the
	// v2 data frame, rec one index record.
	frame []byte
	rec   [indexFrameSize]byte
}

// OpenWriter creates (or reopens) the write handle for writer id. Each id
// may have at most one live Writer per Container.
func (c *Container) OpenWriter(id int32) (*Writer, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, live := c.writers[id]; live {
		return nil, fmt.Errorf("plfs: writer %d already open", id)
	}
	hd := c.hostdir(id)
	dataPath := fmt.Sprintf("%s/%s%d", hd, dataPrefix, id)
	indexPath := fmt.Sprintf("%s/%s%d", hd, indexPrefix, id)
	var data, index BackendFile
	var err error
	if c.backend.Exists(dataPath) {
		if data, err = c.backend.Open(dataPath); err != nil {
			return nil, err
		}
		if index, err = c.backend.Open(indexPath); err != nil {
			return nil, err
		}
	} else {
		if data, err = c.backend.Create(dataPath); err != nil {
			return nil, err
		}
		if index, err = c.backend.Create(indexPath); err != nil {
			return nil, err
		}
	}
	w := &Writer{c: c, id: id, logID: id, data: data, index: index, dataOff: data.Size()}
	c.writers[id] = w
	return w, nil
}

// WriteAt records a write of buf at logical offset off. The data is
// appended to the writer's data log; the mapping is appended to its index
// log. The call never touches any other writer's state.
func (w *Writer) WriteAt(buf []byte, off int64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	if len(buf) == 0 {
		return 0, nil
	}
	if off < 0 {
		return 0, fmt.Errorf("plfs: negative offset %d", off)
	}
	if off > math.MaxInt64-int64(len(buf)) {
		return 0, fmt.Errorf("plfs: write of %d bytes at offset %d ends past the largest file offset", len(buf), off)
	}
	// v1 appends the bytes bare; v2 appends one [len][payload][crc32c]
	// frame per write, and the index entry names the payload start, so
	// reads are frame-oblivious.
	rec, hdr := buf, int64(0)
	if w.c.version >= 2 {
		w.frame = appendFrame(w.frame[:0], buf)
		rec, hdr = w.frame, frameHeaderSize
	}
	// Recovery may fail over to a new log generation (see faults.go);
	// dataOff and logID then name where rec landed.
	if err := w.appendLocked(&w.data, rec); err != nil {
		return 0, err
	}
	entry := IndexEntry{
		LogicalOffset: off,
		Length:        int64(len(buf)),
		Writer:        w.logID,
		LogOffset:     w.dataOff - int64(len(rec)) + hdr,
		Timestamp:     w.c.clock.Add(1),
	}
	w.nWrites++
	w.bytesData += int64(len(buf))
	w.c.cWrites.Inc()
	w.c.cBytesData.Add(int64(len(buf)))

	if w.c.opts.CoalesceIndex {
		if p := w.pending; p != nil && p.Writer == entry.Writer &&
			p.LogicalOffset+p.Length == entry.LogicalOffset &&
			p.LogOffset+p.Length == entry.LogOffset {
			p.Length += entry.Length
			p.Timestamp = entry.Timestamp
			return len(buf), nil
		}
		if err := w.flushPendingLocked(); err != nil {
			return len(buf), err
		}
		e := entry
		w.pending = &e
		return len(buf), nil
	}
	return len(buf), w.appendEntryLocked(entry)
}

func (w *Writer) appendEntryLocked(e IndexEntry) error {
	if err := w.appendLocked(&w.index, encodeEntryRecord(&w.rec, e, w.c.version >= 2)); err != nil {
		return err
	}
	w.nEntries++
	w.c.cIndexEntries.Inc()
	return nil
}

// flushPendingLocked appends the coalesced entry. It stays pending until
// an append lands, so a Sync that returns nil has indexed every write
// the writer acknowledged.
func (w *Writer) flushPendingLocked() error {
	if w.pending == nil {
		return nil
	}
	if err := w.appendEntryLocked(*w.pending); err != nil {
		return err
	}
	w.pending = nil
	return nil
}

// Sync flushes any coalesced-but-unwritten index entry.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	return w.flushPendingLocked()
}

// Close flushes and releases the handle.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	err := w.flushPendingLocked()
	w.closed = true
	w.mu.Unlock()

	w.c.mu.Lock()
	delete(w.c.writers, w.id)
	w.c.mu.Unlock()
	if e := w.data.Close(); e != nil && err == nil {
		err = e
	}
	if e := w.index.Close(); e != nil && err == nil {
		err = e
	}
	return err
}

// Stats reports writer-side counters.
func (w *Writer) Stats() (writes, indexEntries, bytes int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := w.nEntries
	if w.pending != nil {
		n++
	}
	return w.nWrites, n, w.bytesData
}

// Reader resolves the container's logical contents. Opening a reader scans
// every hostdir for index logs and merges them into a GlobalIndex; reads
// then binary-search the index and fetch from the data logs.
type Reader struct {
	c     *Container
	index *GlobalIndex
	data  map[int32]BackendFile

	// quar holds, per data log, the byte ranges plfsck quarantined —
	// payloads of frames whose checksum failed. Reads overlapping one
	// return ErrCorruptExtent. Nil unless VerifyOnOpen found damage.
	quar map[int32][]logRange

	// fsck is the VerifyOnOpen recovery report (nil when no pass ran).
	fsck *FsckReport

	// scratch is the steady-state piece buffer: ReadAt claims it with an
	// atomic swap and returns it when done, so repeated reads allocate
	// nothing while concurrent reads safely fall back to a fresh buffer.
	scratch atomic.Pointer[[]Piece]
}

// indexLogRef locates one writer's index (and data) log pair.
type indexLogRef struct {
	hostdir string
	id      int32
}

// ingestLog decodes one writer's index log and opens its data log. For a
// v2 container it verifies index frames — strictly by default, leniently
// (dropping damaged frames, truncating torn tails, quarantining data
// extents) under VerifyOnOpen, reporting repairs through the returned
// logFsck (nil for v1 or a clean strict pass).
func (c *Container) ingestLog(ref indexLogRef) ([]IndexEntry, BackendFile, *logFsck, error) {
	idx, err := c.backend.Open(fmt.Sprintf("%s/%s%d", ref.hostdir, indexPrefix, ref.id))
	if err != nil {
		return nil, nil, nil, err
	}
	var es []IndexEntry
	var lf *logFsck
	if c.version < 2 {
		es, err = readIndexLog(idx)
	} else {
		var buf []byte
		if buf, err = readAll(idx, "index log"); err == nil {
			if c.opts.VerifyOnOpen {
				var dropped, torn int64
				es, dropped, torn, err = decodeFramedIndexLog(buf, false)
				lf = &logFsck{id: ref.id, frames: int64(len(es)) + dropped, dropped: dropped, torn: torn}
				if torn > 0 {
					truncateTail(idx, int64(len(buf))-torn)
				}
			} else {
				es, _, _, err = decodeFramedIndexLog(buf, true)
			}
		}
	}
	if e := idx.Close(); e != nil && err == nil {
		err = e
	}
	if err != nil {
		return nil, nil, nil, err
	}
	df, err := c.backend.Open(fmt.Sprintf("%s/%s%d", ref.hostdir, dataPrefix, ref.id))
	if err != nil {
		return nil, nil, nil, err
	}
	if lf != nil {
		// Sweep the data log's frames too: quarantine checksum failures,
		// truncate the torn tail a crashed append left behind.
		buf, err := readAll(df, "data log")
		if err != nil {
			df.Close() //lint:allow errflow -- the read failure is the error being reported; this close just releases the handle
			return nil, nil, nil, err
		}
		quarantined, frames, clean := verifyDataFrames(buf)
		lf.quarantined = quarantined
		lf.frames += frames
		if torn := int64(len(buf)) - clean; torn > 0 {
			lf.torn += torn
			truncateTail(df, clean)
		}
	}
	return es, df, lf, nil
}

// OpenReader builds the merged read view. Any live writers should Sync (or
// Close) first or their trailing coalesced entries may be invisible.
//
// Index logs are decoded by a bounded worker pool (Options.IngestWorkers)
// and the per-log results are concatenated in hostdir-scan order before
// the merge, so the GlobalIndex is byte-identical no matter how the work
// was scheduled.
func (c *Container) OpenReader() (*Reader, error) {
	var refs []indexLogRef
	for i := 0; i < c.opts.NumHostdirs; i++ {
		hd := fmt.Sprintf("%s/%s%d", c.path, hostdirPrefix, i)
		names, err := c.backend.ReadDir(hd)
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			var id int32
			if _, err := fmt.Sscanf(name, indexPrefix+"%d", &id); err != nil || fmt.Sprintf("%s%d", indexPrefix, id) != name {
				continue
			}
			refs = append(refs, indexLogRef{hostdir: hd, id: id})
		}
	}

	perLog := make([][]IndexEntry, len(refs))
	files := make([]BackendFile, len(refs))
	fscks := make([]*logFsck, len(refs))
	var (
		nextTask atomic.Int64
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	for w := c.opts.ingestWorkers(len(refs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				t := int(nextTask.Add(1)) - 1
				if t >= len(refs) {
					return
				}
				es, df, lf, err := c.ingestLog(refs[t])
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					failed.Store(true)
					return
				}
				perLog[t], files[t], fscks[t] = es, df, lf
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		closeAll(files)
		return nil, firstErr
	}

	total := 0
	for _, es := range perLog {
		total += len(es)
	}
	entries := make([]IndexEntry, 0, total)
	data := make(map[int32]BackendFile, len(refs))
	for t, es := range perLog {
		entries = append(entries, es...)
		data[refs[t].id] = files[t]
	}
	gi := BuildGlobalIndex(entries)
	// Index-merge cost: raw entries in vs resolved extents out. The ratio
	// measures fragmentation, the driver of read-back index size.
	c.cMerges.Inc()
	c.cMergedEntries.Add(int64(gi.NumEntries()))
	c.cMergedExtents.Add(int64(gi.NumExtents()))
	c.cIngestLogs.Add(int64(len(refs)))
	r := &Reader{c: c, index: gi, data: data}
	if c.opts.VerifyOnOpen && c.version >= 2 {
		// Merge the per-log fsck results (populated in ref order, so the
		// report is identical for any worker count).
		report := &FsckReport{IndexLogs: len(refs), DataLogs: len(refs)}
		for _, lf := range fscks {
			if lf == nil {
				continue
			}
			report.FramesVerified += lf.frames
			report.RecordsDropped += lf.dropped
			report.TornBytes += lf.torn
			report.QuarantinedExtents += len(lf.quarantined)
			for _, q := range lf.quarantined {
				report.QuarantinedBytes += q.end - q.off
			}
			if len(lf.quarantined) > 0 {
				if r.quar == nil {
					r.quar = make(map[int32][]logRange)
				}
				r.quar[lf.id] = lf.quarantined
			}
		}
		c.cFramesOK.Add(report.FramesVerified)
		c.cDroppedRec.Add(report.RecordsDropped)
		c.cTornBytes.Add(report.TornBytes)
		c.cQuarExt.Add(int64(report.QuarantinedExtents))
		r.fsck = report
	}
	return r, nil
}

// closeAll releases whichever backend files a failed ingest already opened.
func closeAll(files []BackendFile) {
	for _, f := range files {
		if f != nil {
			f.Close() //lint:allow errflow -- best-effort release on the ingest failure path; the ingest error is the one reported
		}
	}
}

// Size returns the logical file size.
func (r *Reader) Size() int64 { return r.index.Size() }

// Index exposes the merged index (read-only use).
func (r *Reader) Index() *GlobalIndex { return r.index }

// FsckReport returns the VerifyOnOpen recovery report, or nil when no
// verification pass ran (v1 container or the option off).
func (r *Reader) FsckReport() *FsckReport { return r.fsck }

// ReadAt fills buf from logical offset off. Holes read as zeros. It
// returns io.EOF when the range extends past the logical size, matching
// io.ReaderAt semantics.
func (r *Reader) ReadAt(buf []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("plfs: negative offset %d", off)
	}
	want := int64(len(buf))
	avail := r.index.Size() - off
	if avail <= 0 {
		return 0, io.EOF
	}
	n := want
	if n > avail {
		n = avail
	}
	// Claim the reader's scratch piece buffer; a concurrent ReadAt that
	// loses the swap race simply starts from a nil slice.
	scratch := r.scratch.Swap(nil)
	if scratch == nil {
		scratch = new([]Piece)
	} else {
		r.c.cLookupReuse.Inc()
	}
	pieces := r.index.LookupAppend((*scratch)[:0], off, n)
	// Read-resolution fan-out: how many log pieces one logical read
	// touches — 1 for a uniform restart, many for shifted reads. Piece
	// coalescing means one piece per contiguous log run, not per extent.
	r.c.cReads.Inc()
	r.c.hReadFanout.Observe(float64(len(pieces)))
	err := r.readPieces(buf, off, pieces)
	*scratch = pieces
	r.scratch.Store(scratch)
	if err != nil {
		return 0, err
	}
	if n < want {
		return int(n), io.EOF
	}
	return int(n), nil
}

// readPieces fills buf (based at logical offset off) from resolved pieces.
// Like readIndexLog, it retries legal short reads until each piece is
// complete and surfaces a log that ends before its indexed extent as
// ErrTruncatedLog — the signature of a writer that crashed between its
// index append and its data append becoming durable. Silently returning
// whatever the log had would hand the application zero-filled bytes it
// never wrote.
func (r *Reader) readPieces(buf []byte, off int64, pieces []Piece) error {
	for _, p := range pieces {
		dst := buf[p.Logical-off : p.Logical-off+p.Length]
		if p.Writer < 0 {
			for i := range dst {
				dst[i] = 0
			}
			continue
		}
		df, ok := r.data[p.Writer]
		if !ok {
			return fmt.Errorf("plfs: index references missing data log for writer %d", p.Writer)
		}
		for _, q := range r.quar[p.Writer] {
			if p.LogOff < q.end && q.off < p.LogOff+p.Length {
				r.c.cQuarReads.Inc()
				return fmt.Errorf("%w: writer %d log bytes [%d,%d)",
					ErrCorruptExtent, p.Writer, q.off, q.end)
			}
		}
		for got := 0; got < len(dst); {
			n, err := df.ReadAt(dst[got:], p.LogOff+int64(got))
			got += n
			if got >= len(dst) {
				break
			}
			switch {
			case err == io.EOF:
				return fmt.Errorf("%w: writer %d log offset %d: %d of %d bytes",
					ErrTruncatedLog, p.Writer, p.LogOff, got, len(dst))
			case err != nil:
				return err
			case n == 0:
				return fmt.Errorf("plfs: data log read stalled at %d of %d bytes: %w",
					got, len(dst), io.ErrNoProgress)
			}
		}
	}
	return nil
}

// Close releases the data log handles.
func (r *Reader) Close() error {
	var err error
	for _, f := range r.data {
		if e := f.Close(); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// Flatten materializes the logical file into a flat output file on the
// backend — the "impact determined on later reading" made durable. It
// returns the number of bytes written.
func (r *Reader) Flatten(dstPath string) (written int64, err error) {
	dst, err := r.c.backend.Create(dstPath)
	if err != nil {
		return 0, err
	}
	// The final Close may be what flushes the copy, so its error counts
	// unless an earlier one is already being returned.
	defer func() {
		if e := dst.Close(); e != nil && err == nil {
			err = e
		}
	}()
	const chunk = 1 << 20
	buf := make([]byte, chunk)
	for off := int64(0); off < r.Size(); off += chunk {
		n := r.Size() - off
		if n > chunk {
			n = chunk
		}
		if _, err := r.ReadAt(buf[:n], off); err != nil && err != io.EOF {
			return written, err
		}
		m, err := dst.Write(buf[:n])
		written += int64(m)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}
