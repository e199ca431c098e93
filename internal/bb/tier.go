package bb

import (
	"fmt"

	"repro/internal/flash"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// drainClientBase offsets the tier's internal pfs client ids so they
// never collide with application ranks (which use their MPI rank).
const drainClientBase = 1 << 20

// Tier is a running burst-buffer tier bound to a file system's engine.
// All state mutates inside the single-threaded simulation, so no
// locking anywhere.
type Tier struct {
	cfg      Config
	eng      *sim.Engine
	fs       *pfs.FS
	nodes    []*node
	capPages int // per-node admission budget, in flash pages

	// stats is the tier's accounting, allocated apart from the Tier so
	// the registry's functions, which read it after the run, keep only it
	// alive (see obs.go).
	stats *Stats

	// Aggregate occupancy across nodes, maintained incrementally so
	// peak tracking and series sampling are O(1).
	pendingPages int64 // admitted, not yet released (absorb in flight + dirty)
	backlogBytes int64 // dirty bytes queued or in flight to the FS

	// Pooled per-write and per-drain state (absorbOp, drainOp).
	freeAbsorbs sim.FreeList[absorbOp]
	freeDrains  sim.FreeList[drainOp]

	// Histograms; nil (no-op) on uninstrumented engines.
	hStallWait *obs.Histogram
	hDrainLag  *obs.Histogram
}

// node is one buffer host: an ingest link, a flash log device, and a
// drain lane to the parallel FS.
type node struct {
	idx    int
	nic    *sim.Server   // rank→node ingest link
	dev    *flash.Device // append-only log medium
	flashq *sim.Server   // serializes flash program service
	drainq *sim.Server   // paces drain readback + transfer
	client *pfs.Client   // the node's own FS identity (drains, forwards)

	cursor  int // next log page (lpn), wraps over UserPages
	pending int // admitted pages not yet released — the occupancy bound

	dirty    sim.FIFO[record]    // undrained write-back records
	waiters  sim.FIFO[*absorbOp] // writes stalled on capacity
	draining bool                // one drain in flight per node

	// Fault state, same shape as a pfs server: the epoch lets work in
	// flight discover at its next completion that the node died under
	// it.
	down  bool
	epoch int
}

// record is one absorbed write awaiting (or undergoing) drain.
type record struct {
	f         *pfs.File
	off, size int64
	pages     int
	enq       sim.Time // absorb completion — drain lag measures from here
}

// NewTier builds a tier of cfg.Nodes buffer nodes on the file system's
// engine. The config is validated (panic on error, like pfs.New) and
// instruments register only when the engine is instrumented.
func NewTier(fs *pfs.FS, cfg Config) *Tier {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	eng := fs.Engine()
	t := &Tier{cfg: cfg, eng: eng, fs: fs, capPages: cfg.Flash.UserPages, stats: new(Stats)}
	for i := 0; i < cfg.Nodes; i++ {
		t.nodes = append(t.nodes, &node{
			idx:    i,
			nic:    sim.NewServer(eng, 1),
			dev:    flash.NewDevice(cfg.Flash),
			flashq: sim.NewServer(eng, 1),
			drainq: sim.NewServer(eng, 1),
			client: fs.NewClient(drainClientBase + i),
		})
	}
	t.instrument()
	return t
}

// Stats returns a copy of the tier's accounting so far.
func (t *Tier) Stats() Stats { return *t.stats }

// Occupancy reports the fraction of aggregate buffer capacity currently
// held by unfinished data.
func (t *Tier) Occupancy() float64 {
	return float64(t.pendingPages) / float64(t.capPages*len(t.nodes))
}

// pagesFor rounds a byte count up to whole flash pages.
func (t *Tier) pagesFor(size int64) int {
	ps := t.cfg.Flash.PageSize
	return int((size + ps - 1) / ps)
}

// WriteOp routes one rank's checkpoint write through the buffer tier:
// ingest link → flash log append (write-back acks here; write-through
// also forwards to the FS first). The stage timer accrues the buffer
// hop (obs.StageNet ingest, obs.StageFlash program, obs.StageQueue
// waits including backpressure stalls); done receives ErrNodeDown when
// the node crashed before acknowledging, or the FS's error in
// write-through/passthrough. Writes larger than a node's whole buffer
// bypass to the FS unlogged (counted as passthrough).
func (t *Tier) WriteOp(rank int, f *pfs.File, off, size int64, ot *obs.OpTimer, done func(error)) {
	n := t.nodes[rank%len(t.nodes)]
	pages := t.pagesFor(size)
	if pages > t.capPages {
		t.stats.PassthroughBytes += size
		n.client.WriteOp(f, off, size, ot, done)
		return
	}
	op := t.freeAbsorbs.Get()
	if op.t == nil {
		op.t = t
		op.forwarded = op.forward
	}
	op.n, op.f, op.off, op.size, op.pages, op.ot, op.done = n, f, off, size, pages, ot, done
	t.admit(op)
}

// admit starts op once its node has op.pages of free capacity, stalling
// it in the node's FIFO behind earlier waiters otherwise. The
// page-granular bound (pending ≤ UserPages) is also what keeps the
// wrapping log cursor off undrained pages: at most UserPages of the log
// can be pending, so a page is only reprogrammed after its previous
// content was released.
func (t *Tier) admit(op *absorbOp) {
	n := op.n
	if n.pending+op.pages <= t.capPages && n.waiters.Len() == 0 {
		t.reserve(n, op.pages)
		op.start()
		return
	}
	t.stats.Stalls++
	op.enq = t.eng.Now()
	n.waiters.Push(op)
}

// reserve/release maintain the occupancy accounting on both the node
// and the aggregate, tracking the peak.
func (t *Tier) reserve(n *node, pages int) {
	n.pending += pages
	t.pendingPages += int64(pages)
	t.stats.PeakOccupancy = max(t.stats.PeakOccupancy, t.Occupancy())
}

func (t *Tier) release(n *node, pages int) {
	n.pending -= pages
	t.pendingPages -= int64(pages)
	t.admitWaiters(n)
}

// admitWaiters drains the stall FIFO in order while capacity lasts.
func (t *Tier) admitWaiters(n *node) {
	now := t.eng.Now()
	for n.waiters.Len() > 0 {
		op := n.waiters.Front()
		if n.pending+op.pages > t.capPages {
			return
		}
		n.waiters.Pop()
		wait := now - op.enq
		t.stats.StallTime += wait
		t.hStallWait.Observe(float64(wait))
		op.ot.Add(obs.StageQueue, float64(wait))
		t.reserve(n, op.pages)
		op.start()
	}
}

// program appends the write's pages to the node's log, advancing the
// wrapping cursor, and returns the service time: the FTL's per-page
// program latency (inline GC included) divided across the device's
// channels, as a striped sequential append is.
func (t *Tier) program(n *node, pages int) sim.Time {
	var lat sim.Time
	for i := 0; i < pages; i++ {
		lat += n.dev.WritePage(n.cursor)
		n.cursor++
		if n.cursor == t.cfg.Flash.UserPages {
			n.cursor = 0
		}
	}
	return sim.Time(float64(lat) / float64(n.dev.Spec.Channels))
}

// absorbStage is the event an absorbOp waits on.
type absorbStage uint8

const (
	absorbIngest  absorbStage = iota // payload on the node's ingest link
	absorbProgram                    // log append on the flash device
	absorbFailed                     // the client timeout against a dead node
)

// absorbOp is one admitted write on its way into a node's log. It is
// the Handler of its ingest-link and flash-program completions, and of
// the FS's RPC timeout that errors it against a dead node. absorbOps are
// pooled on the Tier; t and forwarded (the write-through forward's
// completion) are bound once per struct and survive recycling.
type absorbOp struct {
	t         *Tier
	forwarded func(error)

	n         *node
	f         *pfs.File
	off, size int64
	pages     int
	ot        *obs.OpTimer
	done      func(error)

	stage absorbStage
	epoch int      // n.epoch when the write left admission
	svc   sim.Time // service time of the queued stage
	enq   sim.Time // when the queued stage, or the stall, began
}

// start sends the admitted write over the node's ingest link.
func (op *absorbOp) start() {
	op.epoch = op.n.epoch
	op.queue(absorbIngest, op.n.nic, sim.Time(float64(op.size)/ingestBandwidth))
}

func (op *absorbOp) queue(next absorbStage, q *sim.Server, svc sim.Time) {
	op.stage, op.svc, op.enq = next, svc, op.t.eng.Now()
	q.SubmitHandler(svc, op)
}

// Handle resumes the write when the event it waits on fires. Ingest
// and flash program each charge their sojourn as queueing plus service;
// a node that died meanwhile fails the write.
func (op *absorbOp) Handle() {
	switch op.stage {
	case absorbIngest:
		if op.served(obs.StageNet) {
			op.queue(absorbProgram, op.n.flashq, op.t.program(op.n, op.pages))
		}
	case absorbProgram:
		if op.served(obs.StageFlash) {
			op.absorbed()
		}
	case absorbFailed:
		op.finish(ErrNodeDown)
	}
}

// served charges the finished stage to the stage timer and reports
// whether the node is still the one the write was admitted to; if not,
// it fails the write.
func (op *absorbOp) served(stage obs.Stage) bool {
	op.ot.Add(obs.StageQueue, float64(op.t.eng.Now()-op.enq-op.svc))
	op.ot.Add(stage, float64(op.svc))
	if op.n.down || op.n.epoch != op.epoch {
		op.fail()
		return false
	}
	return true
}

// absorbed counts the write logged and acknowledges it: write-back acks
// now and leaves the record to the drain, write-through once the FS
// holds its copy.
func (op *absorbOp) absorbed() {
	t, n := op.t, op.n
	t.stats.AbsorbedOps++
	t.stats.AbsorbedBytes += op.size
	if t.cfg.Mode == WriteThrough {
		t.stats.ForwardedBytes += op.size
		n.client.WriteOp(op.f, op.off, op.size, op.ot, op.forwarded)
		return
	}
	n.dirty.Push(record{f: op.f, off: op.off, size: op.size, pages: op.pages, enq: t.eng.Now()})
	t.backlogBytes += op.size
	t.kickDrain(n)
	op.finish(nil)
}

// forward completes a write-through write once the FS holds its copy.
func (op *absorbOp) forward(err error) {
	op.t.release(op.n, op.pages)
	op.finish(err)
}

// fail errors the write against a dead node after the client timeout,
// releasing its reservation (the bytes never stuck).
func (op *absorbOp) fail() {
	t := op.t
	t.stats.FailedOps++
	t.release(op.n, op.pages)
	op.stage = absorbFailed
	t.eng.ScheduleHandler(t.fs.FailTimeout(), op)
}

// finish recycles the op and acknowledges the write. Recycling first
// lets a done that issues the rank's next write reuse the struct.
func (op *absorbOp) finish(err error) {
	t, done := op.t, op.done
	*op = absorbOp{t: t, forwarded: op.forwarded}
	t.freeAbsorbs.Put(op)
	done(err)
}

// kickDrain starts the node's next drain if none is running: read the
// record back from flash (TRead per page across channels) and stream it
// to the FS at the configured drain pace, then issue the FS write.
func (t *Tier) kickDrain(n *node) {
	if n.draining || n.down || n.dirty.Len() == 0 {
		return
	}
	n.draining = true
	d := t.freeDrains.Get()
	if d.t == nil {
		d.t = t
		d.written = d.write
	}
	d.n, d.rec, d.epoch, d.backoff, d.readback = n, n.dirty.Pop(), n.epoch, drainRetryBackoff, true
	readback := sim.Time(float64(d.rec.pages) * float64(t.cfg.Flash.TRead) / float64(n.dev.Spec.Channels))
	pace := sim.Time(float64(d.rec.size) / t.cfg.DrainBandwidth)
	n.drainq.SubmitHandler(readback+pace, d)
}

// drainOp is one record's drain: its readback, its FS write and that
// write's retries with capped exponential backoff. It is the Handler of
// the readback and of the retry timer; written, its FS-write
// completion, is bound once per struct and survives recycling, as t
// does.
//
// The epoch is the drain's, not the node's: a node that crashes and
// recovers while a torn drain's FS write is still on the wire starts a
// second drain on the same node, and the torn write must still see the
// epoch it left under.
type drainOp struct {
	t       *Tier
	written func(error)

	n        *node
	rec      record
	epoch    int
	attempt  int
	backoff  sim.Time
	readback bool // waiting on the readback, not a retry timer
}

// Handle issues the FS write once the readback is done or a retry's
// backoff is over. A node that died during readback put nothing on the
// wire: the record is gone with the rest of the dirty data.
func (d *drainOp) Handle() {
	if d.readback {
		d.readback = false
		if d.n.epoch != d.epoch {
			t, n, rec := d.t, d.n, d.rec
			d.recycle()
			t.loseRecord(n, rec)
			return
		}
	}
	d.n.client.WriteOp(d.rec.f, d.rec.off, d.rec.size, nil, d.written)
}

// write completes one FS write of the drain, retrying FS-side failures.
// A node crash while the write was on the wire tears the drain: if the
// write landed anyway, its extent is marked corrupt for checksums to
// catch; either way the data no longer counts as cleanly drained.
func (d *drainOp) write(err error) {
	t, n, rec := d.t, d.n, d.rec
	torn := n.epoch != d.epoch
	if !torn && err != nil && d.attempt < maxDrainRetries {
		d.attempt++
		t.stats.DrainRetries++
		delay := d.backoff
		if d.backoff *= 2; d.backoff > 8*drainRetryBackoff {
			d.backoff = 8 * drainRetryBackoff
		}
		t.eng.ScheduleHandler(delay, d)
		return
	}
	d.recycle()
	switch {
	case torn:
		t.stats.TornDrains++
		t.stats.TornBytes += rec.size
		if err == nil {
			t.fs.CorruptExtent(rec.f.Name(), rec.off, rec.size)
		}
		t.backlogBytes -= rec.size
		t.release(n, rec.pages)
	case err != nil:
		// The FS would not take it back: the drain is abandoned
		// (counted, never silently lost) so the buffer frees up and the
		// run completes through permanent FS failures.
		t.stats.DroppedDrainBytes += rec.size
		t.finishDrain(n, rec)
	default:
		t.stats.DrainedOps++
		t.stats.DrainedBytes += rec.size
		lag := t.eng.Now() - rec.enq
		t.hDrainLag.Observe(float64(lag))
		t.stats.MaxDrainLag = max(t.stats.MaxDrainLag, lag)
		t.finishDrain(n, rec)
	}
}

func (d *drainOp) recycle() {
	t := d.t
	*d = drainOp{t: t, written: d.written}
	t.freeDrains.Put(d)
}

// finishDrain releases a completed (or abandoned) record and moves to
// the next one.
func (t *Tier) finishDrain(n *node, rec record) {
	t.backlogBytes -= rec.size
	t.release(n, rec.pages)
	n.draining = false
	t.kickDrain(n)
}

// loseRecord accounts a record destroyed by its node's crash before it
// reached the wire.
func (t *Tier) loseRecord(n *node, rec record) {
	t.stats.LostBytes += rec.size
	t.backlogBytes -= rec.size
	t.release(n, rec.pages)
}

// nodeByTarget resolves a NodeTarget name, or nil for foreign targets.
// Only the exact NodeTarget spelling names a node, so aliases such as
// "bb01" cannot slip overlapping windows past FaultPlan.Validate.
func (t *Tier) nodeByTarget(target string) *node {
	var i int
	if _, err := fmt.Sscanf(target, "bb%d", &i); err != nil || NodeTarget(i) != target {
		return nil
	}
	if i < 0 || i >= len(t.nodes) {
		return nil
	}
	return t.nodes[i]
}

// CrashTarget implements sim.FaultSink: the named buffer node dies. In
// write-back mode every queued dirty record is lost on the spot; work
// in flight (absorptions, the current drain) discovers the crash by
// epoch comparison at its next completion, so the event queue is never
// rummaged through. Foreign targets ("oss2") are ignored.
func (t *Tier) CrashTarget(target string) {
	n := t.nodeByTarget(target)
	if n == nil || n.down {
		return
	}
	n.down = true
	n.epoch++
	t.stats.Crashes++
	for n.dirty.Len() > 0 {
		rec := n.dirty.Pop()
		t.stats.LostBytes += rec.size
		t.backlogBytes -= rec.size
		n.pending -= rec.pages
		t.pendingPages -= int64(rec.pages)
	}
	n.draining = false
	// The freed capacity admits stalled writes; they will fail against
	// the down node and feed the application's retry loop.
	t.admitWaiters(n)
}

// RecoverTarget implements sim.FaultSink: the named node returns to
// service empty — its log's dirty window was already accounted lost at
// crash time. The device itself survives (wear and pool state carry
// over, as a rebooted host's flash does).
func (t *Tier) RecoverTarget(target string) {
	n := t.nodeByTarget(target)
	if n == nil || !n.down {
		return
	}
	n.down = false
	t.stats.Recoveries++
	t.kickDrain(n)
}
