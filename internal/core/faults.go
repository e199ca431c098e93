package core

import (
	"errors"
	"fmt"
	"time"
)

// This file is PLFS's side of fault tolerance: what a writer does when the
// backing store starts failing under it. The log-structured layout makes
// recovery unusually cheap — a writer owns its logs outright, so after a
// persistent append error it simply abandons them and opens a fresh
// *generation* of data+index logs (a failover), losing nothing already
// durable: index entries carry the originating log's id in their Writer
// field, so one writer's logical extents may span generations and the
// read path merges them like any other set of logs. This is exactly the
// PLFS argument applied to failures — transforming "rewrite the damaged
// file" into "append somewhere else".

// ErrTruncatedLog reports a data log shorter than its index claims — the
// signature of a writer that crashed after appending an index entry but
// before its data append became durable. Reads surface it instead of
// fabricating zero bytes (errors.Is-matchable under wrapped detail).
var ErrTruncatedLog = errors.New("plfs: data log truncated")

// genShift packs a writer's failover generation into the IndexEntry
// Writer field: log id = writer id + generation<<genShift. Writer ids
// must stay below 1<<genShift when retries are enabled.
const genShift = 20

// logKey derives the on-backend log id for a writer generation.
func logKey(id int32, gen int32) int32 { return id + gen<<genShift }

// RetryPolicy tunes a Writer's handling of backend append errors. The
// zero value disables retries: the first error surfaces to the caller,
// preserving the pre-fault-layer behaviour.
type RetryPolicy struct {
	// MaxRetries bounds in-place retries of a failed append before the
	// writer fails over to a fresh generation of logs.
	MaxRetries int

	// BaseBackoff is the delay before the first retry; each subsequent
	// retry doubles it, capped at MaxBackoff (which defaults to
	// BaseBackoff when zero). The writer never sleeps on its own —
	// accumulated backoff is reported through WriterFaultStats so a
	// simulation charges it to virtual time; set Sleep for deployments
	// that should actually wait.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration

	// Sleep, when non-nil, is invoked with each backoff delay.
	Sleep func(time.Duration)

	// Appends are assumed atomic per record at the backend: a failed
	// data-log Write may report partially appended bytes (they become
	// dropped, never-indexed garbage and are accounted as such), but a
	// torn index record is not repaired — it surfaces at read time
	// through readIndexLog's corruption checks.
}

// enabled reports whether the policy does anything at all.
func (p RetryPolicy) enabled() bool { return p.MaxRetries > 0 }

// WriterFaultStats aggregates one writer's recovery activity.
type WriterFaultStats struct {
	// Retries counts in-place re-appends after a backend error.
	Retries int64

	// Failovers counts generation switches after persistent errors.
	Failovers int64

	// DroppedBytes counts data-log bytes appended by failed writes and
	// abandoned: the index never references them, so reads stay correct,
	// but later entries' log offsets account for them.
	DroppedBytes int64

	// Backoff is the total backoff the policy's schedule imposed.
	Backoff time.Duration
}

// FaultStats reports the writer's recovery activity so far.
func (w *Writer) FaultStats() WriterFaultStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.faults
}

// Generation reports how many times the writer has failed over.
func (w *Writer) Generation() int32 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.gen
}

// backoffLocked charges one step of the capped exponential schedule and
// returns the next delay.
func (w *Writer) backoffLocked(delay time.Duration) time.Duration {
	pol := w.c.opts.Retry
	w.faults.Backoff += delay
	if pol.Sleep != nil && delay > 0 {
		pol.Sleep(delay)
	}
	next := delay * 2
	maxB := pol.MaxBackoff
	if maxB <= 0 {
		maxB = pol.BaseBackoff
	}
	if next > maxB {
		next = maxB
	}
	return next
}

// dropLocked accounts bytes a failed append left in the data log. They
// advance the log offset — the next entry must not claim them — but no
// index entry will ever reference them.
func (w *Writer) dropLocked(n int) {
	if n <= 0 {
		return
	}
	w.dataOff += int64(n)
	w.faults.DroppedBytes += int64(n)
	w.c.cDropped.Add(int64(n))
}

// recoverDataAppendLocked retries a failed data-log append per the retry
// policy and, when the error persists, fails over to a new generation and
// appends there. Returns the byte count of the successful append.
func (w *Writer) recoverDataAppendLocked(buf []byte, wrote int, err error) (int, error) {
	pol := w.c.opts.Retry
	if !pol.enabled() {
		return wrote, err
	}
	w.dropLocked(wrote)
	delay := pol.BaseBackoff
	for attempt := 0; attempt < pol.MaxRetries; attempt++ {
		delay = w.backoffLocked(delay)
		w.faults.Retries++
		w.c.cRetries.Inc()
		n, rerr := w.data.Write(buf)
		if rerr == nil {
			return n, nil
		}
		w.dropLocked(n)
		err = rerr
	}
	if ferr := w.failoverLocked(); ferr != nil {
		return 0, fmt.Errorf("plfs: writer %d failover after %v: %w", w.id, err, ferr)
	}
	n, rerr := w.data.Write(buf)
	if rerr != nil {
		w.dropLocked(n)
		return 0, fmt.Errorf("plfs: writer %d gen %d data append: %w", w.id, w.gen, rerr)
	}
	return n, nil
}

// recoverIndexAppendLocked is recoverDataAppendLocked for the index log.
// A persistent index error also forces a failover — the data already
// written stays readable because the re-appended entry still names the
// generation that holds it.
func (w *Writer) recoverIndexAppendLocked(rec []byte, err error) error {
	pol := w.c.opts.Retry
	if !pol.enabled() {
		return err
	}
	delay := pol.BaseBackoff
	for attempt := 0; attempt < pol.MaxRetries; attempt++ {
		delay = w.backoffLocked(delay)
		w.faults.Retries++
		w.c.cRetries.Inc()
		if _, rerr := w.index.Write(rec); rerr == nil {
			return nil
		} else {
			err = rerr
		}
	}
	if ferr := w.failoverLocked(); ferr != nil {
		return fmt.Errorf("plfs: writer %d failover after %v: %w", w.id, err, ferr)
	}
	if _, rerr := w.index.Write(rec); rerr != nil {
		return fmt.Errorf("plfs: writer %d gen %d index append: %w", w.id, w.gen, rerr)
	}
	return nil
}

// failoverLocked abandons the current generation's logs and opens fresh
// ones under the derived log id. Any coalesced-but-unflushed entry is
// appended to the new index log first (it still names the old
// generation's data log, which remains readable on the backend).
func (w *Writer) failoverLocked() error {
	if w.id >= 1<<genShift {
		return fmt.Errorf("plfs: writer id %d too large for failover generations", w.id)
	}
	gen := w.gen + 1
	key := logKey(w.id, gen)
	hd := w.c.hostdir(key)
	data, err := w.c.backend.Create(fmt.Sprintf("%s/%s%d", hd, dataPrefix, key))
	if err != nil {
		return err
	}
	index, err := w.c.backend.Create(fmt.Sprintf("%s/%s%d", hd, indexPrefix, key))
	if err != nil {
		data.Close() //lint:allow errflow -- the Create failure is the error; this close releases the unused data handle
		return err
	}
	// Best-effort close of the dead handles; their contents stay on the
	// backend for the reader.
	//lint:allow errflow -- dead handles after a simulated crash; nothing to report to
	w.data.Close()
	w.index.Close() //lint:allow errflow -- dead handles after a simulated crash; nothing to report to
	pending := w.pending
	w.pending = nil
	w.data, w.index = data, index
	w.dataOff = 0
	w.gen = gen
	w.logID = key
	w.faults.Failovers++
	w.c.cFailovers.Inc()
	if pending != nil {
		// Not w.rec or w.frame: the append being recovered may still hold
		// either to retry once the new generation is open.
		rec := encodeEntryRecord(new([indexFrameSize]byte), *pending, w.c.version >= 2)
		if _, err := w.index.Write(rec); err != nil {
			return fmt.Errorf("plfs: writer %d gen %d pending entry: %w", w.id, gen, err)
		}
		w.nEntries++
		w.c.cIndexEntries.Inc()
	}
	return nil
}

// recoverFramedAppendLocked retries a failed framed (v2) data-log append.
// A frame is only usable if it lands whole: once the backend admits to a
// partial append, retrying in place would interleave fragments of two
// frame copies, so the writer accounts the torn bytes (plfsck truncates
// or ignores them on a later open), fails over to a fresh generation,
// and appends the frame there. Only clean zero-byte failures are retried
// in place.
func (w *Writer) recoverFramedAppendLocked(frame []byte, wrote int, err error) error {
	pol := w.c.opts.Retry
	if !pol.enabled() {
		return err
	}
	delay := pol.BaseBackoff
	for attempt := 0; wrote == 0 && attempt < pol.MaxRetries; attempt++ {
		delay = w.backoffLocked(delay)
		w.faults.Retries++
		w.c.cRetries.Inc()
		n, rerr := w.data.Write(frame)
		if rerr == nil {
			return nil
		}
		wrote, err = n, rerr
	}
	w.dropLocked(wrote)
	if ferr := w.failoverLocked(); ferr != nil {
		return fmt.Errorf("plfs: writer %d failover after %v: %w", w.id, err, ferr)
	}
	n, rerr := w.data.Write(frame)
	if rerr != nil {
		w.dropLocked(n)
		return fmt.Errorf("plfs: writer %d gen %d data append: %w", w.id, w.gen, rerr)
	}
	return nil
}

// FaultyBackend wraps a Backend and fails a scripted number of appends —
// the deterministic stand-in for a storage system dropping out from under
// a writer. Failures are whole-operation for index-record-sized appends
// and may be partial for larger ones (PartialBytes), exercising the
// dropped-extent accounting.
type FaultyBackend struct {
	Backend

	// FailNextWrites makes that many upcoming Write calls fail.
	FailNextWrites int

	// PartialBytes, when > 0, makes each failed Write first append that
	// many bytes of the payload (only when the payload is larger, so
	// index records never tear).
	PartialBytes int

	// FailCreates makes Create fail while positive (blocks failover).
	FailCreates int

	// Writes and Failures count Write calls seen and failed.
	Writes, Failures int
}

// errInjected is the error injected by FaultyBackend.
var errInjected = errors.New("injected backend write failure")

// NewFaultyBackend wraps b with no failures armed.
func NewFaultyBackend(b Backend) *FaultyBackend { return &FaultyBackend{Backend: b} }

// Create delegates to the wrapped backend unless create failures are armed.
func (b *FaultyBackend) Create(path string) (BackendFile, error) {
	if b.FailCreates > 0 {
		b.FailCreates--
		return nil, fmt.Errorf("%w: create %s", errInjected, path)
	}
	f, err := b.Backend.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultyFile{BackendFile: f, b: b}, nil
}

// Open wraps opened files so appends through reopened handles also fail.
func (b *FaultyBackend) Open(path string) (BackendFile, error) {
	f, err := b.Backend.Open(path)
	if err != nil {
		return nil, err
	}
	return &faultyFile{BackendFile: f, b: b}, nil
}

type faultyFile struct {
	BackendFile
	b *FaultyBackend
}

func (f *faultyFile) Write(p []byte) (int, error) {
	f.b.Writes++
	if f.b.FailNextWrites > 0 {
		f.b.FailNextWrites--
		f.b.Failures++
		n := 0
		if pb := f.b.PartialBytes; pb > 0 && pb < len(p) {
			n, _ = f.BackendFile.Write(p[:pb])
		}
		return n, errInjected
	}
	return f.BackendFile.Write(p)
}
