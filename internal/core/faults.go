package core

import (
	"errors"
	"fmt"
	"time"
)

// This file is PLFS's side of fault tolerance: what a writer does when the
// backing store starts failing under it. The log-structured layout makes
// recovery unusually cheap — a writer owns its logs outright, so after a
// persistent or torn append it simply abandons them and opens a fresh
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
// Writer field: log id = writer id + generation<<genShift. A writer
// whose id is 1<<genShift or more cannot fail over.
const genShift = 20

// logKey derives the on-backend log id for a writer generation.
func logKey(id int32, gen int32) int32 { return id + gen<<genShift }

// RetryPolicy tunes a Writer's handling of backend append errors. Every
// append, data or index, in either format, follows one rule: an attempt
// that wrote nothing is retried in place up to MaxRetries times, after
// which the writer fails over to a fresh generation of logs and appends
// once more; an attempt that wrote part of its record ends the
// generation, and the writer fails over before anything else lands after
// the torn bytes. A writer whose failover fails returns that error from
// every later append.
//
// The zero value disables retries: an append makes one attempt and its
// error surfaces to the caller. A torn append still fails over under the
// zero policy, so the writer's later appends land on fresh logs at
// truthful offsets.
type RetryPolicy struct {
	// MaxRetries bounds in-place retries of an append that wrote
	// nothing; once they are spent the writer fails over to a fresh
	// generation of logs and appends once more.
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

	// Index appends are assumed atomic per record at the backend: a
	// failed data-log Write may report partially appended bytes (they
	// become dropped, never-indexed garbage and are accounted as such),
	// but a torn index record is not repaired — it surfaces at read time
	// through readIndexLog's corruption checks.
}

// enabled reports whether the policy does anything at all.
func (p RetryPolicy) enabled() bool { return p.MaxRetries > 0 }

// WriterFaultStats aggregates one writer's recovery activity.
type WriterFaultStats struct {
	// Retries counts in-place re-appends after a backend error.
	Retries int64

	// Failovers counts generation switches after torn appends and
	// persistent errors.
	Failovers int64

	// DroppedBytes counts data-log bytes that torn appends left behind
	// in abandoned generations: the index never references them, so
	// reads stay correct.
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

// backoffLocked counts one in-place retry, charges its delay from the
// capped exponential schedule and returns the next delay.
func (w *Writer) backoffLocked(delay time.Duration) time.Duration {
	pol := w.c.opts.Retry
	w.faults.Retries++
	w.c.cRetries.Inc()
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

// appendLocked appends rec whole to the current generation's data log
// (log == &w.data) or index log (log == &w.index): the one append path
// of both logs and both formats, under RetryPolicy's rule. It makes at
// most MaxRetries+2 attempts (one under the zero policy) and returns the
// last attempt's error. Bytes a torn attempt leaves in a data log count
// as DroppedBytes. A failover that fails breaks the writer: the error is
// kept and returned by every later append. A data append that lands
// advances dataOff past rec.
func (w *Writer) appendLocked(log *BackendFile, rec []byte) error {
	if w.broken != nil {
		return w.broken
	}
	pol := w.c.opts.Retry
	attempts := 1
	if pol.enabled() {
		attempts = pol.MaxRetries + 2
	}
	delay := pol.BaseBackoff
	for attempt := 1; ; attempt++ {
		n, err := (*log).Write(rec)
		if err == nil {
			if log == &w.data {
				w.dataOff += int64(len(rec))
			}
			return nil
		}
		if n == 0 && attempt <= pol.MaxRetries {
			delay = w.backoffLocked(delay)
			continue
		}
		last := attempt == attempts
		if n > 0 || !last {
			if log == &w.data {
				w.dataOff += int64(n)
				w.faults.DroppedBytes += int64(n)
				w.c.cDropped.Add(int64(n))
			}
			if ferr := w.failoverLocked(); ferr != nil {
				w.broken = fmt.Errorf("plfs: writer %d failover after %w: %w", w.id, err, ferr)
				return w.broken
			}
		}
		if last {
			return err
		}
	}
}

// failoverLocked abandons the current generation's logs and opens fresh
// ones under the derived log id. The old logs stay on the backend for
// the reader: entries already appended, and a coalesced entry still
// pending, keep naming the old data log, and a later flush appends the
// pending one to the new index log like any other entry.
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
	w.data, w.index = data, index
	w.dataOff = 0
	w.gen = gen
	w.logID = key
	w.faults.Failovers++
	w.c.cFailovers.Inc()
	return nil
}

// FaultyBackend wraps a Backend and fails a scripted number of appends —
// the deterministic stand-in for a storage system dropping out from under
// a writer. Failures are whole-operation for appends no longer than an
// index record and may be partial for longer ones (PartialBytes),
// exercising the dropped-extent accounting.
type FaultyBackend struct {
	Backend

	// FailNextWrites makes that many upcoming Write calls fail.
	FailNextWrites int

	// PartialBytes, when > 0, makes each failed Write first append that
	// many bytes of the payload — only when the payload is larger and
	// longer than indexFrameSize, the longest index record of either
	// format, so index records never tear.
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
		if pb := f.b.PartialBytes; pb > 0 && pb < len(p) && len(p) > indexFrameSize {
			n, _ = f.BackendFile.Write(p[:pb])
		}
		return n, errInjected
	}
	return f.BackendFile.Write(p)
}
