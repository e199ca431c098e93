package pfs

import (
	"fmt"
	"math"

	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/sim"
)

// File is a client handle on a file.
type File struct {
	fs *FS
	st *fileState
}

// Name returns the file's path name.
func (f *File) Name() string { return f.st.name }

// Client issues operations into the file system. Each client has its own
// network link; a client's transfers serialize on that link, as a real
// compute node's do.
type Client struct {
	fs  *FS
	id  int
	nic *sim.Server
}

// NewClient registers a client with the given id (ranks use their MPI rank).
func (fs *FS) NewClient(id int) *Client {
	return &Client{fs: fs, id: id, nic: sim.NewServer(fs.eng, 1)}
}

// parentDir returns the directory component of a path.
func parentDir(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '/' {
			return name[:i]
		}
	}
	return ""
}

// Create makes (or truncates) a file via the metadata server and passes the
// handle to done. Creates within one parent directory serialize on that
// directory's lock even when the metadata server has spare threads.
func (c *Client) Create(name string, done func(*File)) {
	fs := c.fs
	dir := parentDir(name)
	done = c.traceSpan("pfs.meta", "create", done)
	fs.acquireDir(dir, c.id, func() {
		fs.mds.Submit(fs.Cfg.MetadataOp, func(sim.Time) {
			fs.tally.metadataOps++
			st, ok := fs.files[name]
			if !ok {
				st = &fileState{id: fs.nextID, name: name}
				fs.nextID++
				fs.files[name] = st
			}
			st.size = 0
			fs.releaseDir(dir)
			if done != nil {
				done(&File{fs: fs, st: st})
			}
		})
	})
}

// Open returns a handle on an existing file (creating it if absent, which
// keeps workload code simple) after a metadata round trip.
func (c *Client) Open(name string, done func(*File)) {
	fs := c.fs
	done = c.traceSpan("pfs.meta", "open", done)
	fs.mds.Submit(fs.Cfg.MetadataOp, func(sim.Time) {
		fs.tally.metadataOps++
		st, ok := fs.files[name]
		if !ok {
			st = &fileState{id: fs.nextID, name: name}
			fs.nextID++
			fs.files[name] = st
		}
		if done != nil {
			done(&File{fs: fs, st: st})
		}
	})
}

// traceSpan wraps a metadata completion callback in a tracer span from
// now until the callback fires; lanes (tid) are client ids. Returns done
// unchanged when tracing is off, so the disabled path allocates nothing.
func (c *Client) traceSpan(cat, name string, done func(*File)) func(*File) {
	tr := c.fs.eng.Tracer()
	if !tr.Enabled() {
		return done
	}
	eng := c.fs.eng
	start := float64(eng.Now())
	tid := int64(c.id)
	return func(f *File) {
		tr.Span(cat, name, tid, start, float64(eng.Now()), nil)
		if done != nil {
			done(f)
		}
	}
}

// traceIOSpan is traceSpan for data-path completions, annotated with the
// logical offset and size; failed operations gain an "error" argument.
func (c *Client) traceIOSpan(name string, off, size int64, done func(error)) func(error) {
	tr := c.fs.eng.Tracer()
	if !tr.Enabled() {
		return done
	}
	eng := c.fs.eng
	start := float64(eng.Now())
	tid := int64(c.id)
	return func(err error) {
		args := map[string]any{"off": off, "size": size}
		if err != nil {
			args["error"] = err.Error()
		}
		tr.Span("pfs", name, tid, start, float64(eng.Now()), args)
		if done != nil {
			done(err)
		}
	}
}

// subOp is one stripe-unit-granular piece of a client write or read.
type subOp struct {
	unit        int64
	offIn, size int64 // range within the stripe unit
}

// pieceAt returns the first stripe-unit piece of [off, off+size). A
// range is walked piece by piece: advance off and shrink size by each
// piece's size until size reaches zero.
func pieceAt(off, size, unit int64) subOp {
	within := off % unit
	return subOp{unit: off / unit, offIn: within, size: min(unit-within, size)}
}

// checkRange rejects a byte range no model can mean: a negative offset,
// or an end past MaxInt64. Offsets come from model code, so only a bug
// produces one; the panic names the op at its call, not at event time.
func checkRange(op string, off, size int64) {
	if off < 0 || size > math.MaxInt64-off {
		panic(fmt.Sprintf("pfs: %s of %d bytes at offset %d: negative offset or end past MaxInt64", op, size, off))
	}
}

// WriteOp writes [off, off+size) and calls done at completion. The path
// per stripe unit is: client NIC transfer -> stripe lock acquisition
// (revoke if another client owns it) -> RPC latency -> server NIC ->
// disk write, with read-modify-write if the piece does not cover its
// unit. done receives ErrServerDown when any piece's server crashed
// before acknowledging; the file size only advances on full success, so
// a failed checkpoint write leaves no phantom extent.
//
// ot is the caller's stage timer and nil leaves the op untimed. The op
// charges each stage to ot but never observes it: the caller folds it
// in with FinishWriteOp once the logical op has succeeded, so a retry
// loop can carry one timer across attempts. A negative off, or an
// off+size past MaxInt64, panics.
func (c *Client) WriteOp(f *File, off, size int64, ot *obs.OpTimer, done func(error)) {
	checkRange("WriteOp", off, size)
	fs := c.fs
	if size <= 0 {
		fs.completeEmpty(done)
		return
	}
	op := fs.startOp(f.st, off+size, true, c.traceIOSpan("write", off, size, done))
	for size > 0 {
		pc := fs.newPiece(op, c, pieceAt(off, size, fs.Cfg.StripeUnit), ot)
		// The client's link serializes its own pieces.
		pc.queue(writeClientNIC, c.nic, sim.Time(float64(pc.p.size)/fs.Cfg.ClientNetBW))
		off += pc.p.size
		size -= pc.p.size
	}
}

// ReadOp reads [off, off+size) and calls done at completion. Reads skip
// the lock manager and RMW but follow the same network/disk path. A
// piece whose home server is down is reconstructed from k survivors of
// its redundancy group at degraded cost; done receives ErrServerDown
// when there is no group to reconstruct from, and ErrDataLoss when the
// group lost more than m. ot is timed as WriteOp's is, and folded in
// with FinishReadOp.
func (c *Client) ReadOp(f *File, off, size int64, ot *obs.OpTimer, done func(error)) {
	checkRange("ReadOp", off, size)
	fs := c.fs
	if size <= 0 {
		fs.completeEmpty(done)
		return
	}
	op := fs.startOp(f.st, off+size, false, c.traceIOSpan("read", off, size, done))
	for size > 0 {
		pc := fs.newPiece(op, c, pieceAt(off, size, fs.Cfg.StripeUnit), ot)
		ot.Add(obs.StageRPC, float64(fs.Cfg.RPCLatency))
		pc.stage = readRPC
		fs.eng.ScheduleHandler(fs.Cfg.RPCLatency, pc)
		off += pc.p.size
		size -= pc.p.size
	}
}

// completeEmpty finishes a zero-length op: done runs from the event
// queue with a nil error, as every completion does.
func (fs *FS) completeEmpty(done func(error)) {
	if done != nil {
		fs.eng.Schedule(0, func() { done(nil) })
	}
}

// dataOp is one WriteOp or ReadOp in flight: its pieces still
// outstanding, the first error any of them met, and what completion
// does. dataOps are pooled on the FS, so a warm op allocates nothing.
type dataOp struct {
	st      *fileState
	end     int64 // off+size: a successful write grows the file to it
	write   bool
	pending int
	err     error
	done    func(error)
}

func (fs *FS) startOp(st *fileState, end int64, write bool, done func(error)) *dataOp {
	op := fs.freeOps.Get()
	*op = dataOp{st: st, end: end, write: write, done: done}
	fs.inflight++
	return op
}

// finishPiece records one piece's outcome; the last one completes the
// op. The op is recycled before done runs, so a done that issues the
// next op reuses it.
func (fs *FS) finishPiece(op *dataOp, err error) {
	if err != nil && op.err == nil {
		op.err = err
	}
	op.pending--
	if op.pending > 0 {
		return
	}
	fs.inflight--
	if op.write && op.err == nil && op.end > op.st.size {
		op.st.size = op.end
	}
	err, done := op.err, op.done
	*op = dataOp{}
	fs.freeOps.Put(op)
	if done != nil {
		done(err)
	}
}

// stage is where a piece is in its path; each names the event the piece
// waits on, and Handle resumes from it.
type stage uint8

const (
	writeClientNIC     stage = iota // payload on the client's link
	writeLock                       // queued for the stripe lock, or paying its revoke
	writeRPC                        // request in flight to the server
	writeServerNIC                  // payload on the server's link
	writeDisk                       // disk write at the server
	writeFragments                  // redundancy fragment writes (memberIO)
	readRPC                         // request in flight to the home server
	readHole                        // hole read: an empty pass through the disk queue
	readDisk                        // disk read at the home server
	readServerNIC                   // data on the home server's link
	readReconstruct                 // k survivor reads (memberIO)
	readReconstructNIC              // decoded data on the first survivor's link
	readClientNIC                   // data on the client's link
)

// piece is one stripe-unit piece of a dataOp. It is the Handler of each
// event on its path in turn — client NIC, stripe lock, RPC, server NIC,
// disk, redundancy fan-out for a write; RPC, disk or reconstruction,
// NICs for a read — and pieces are pooled on the FS, so a warm piece
// allocates nothing.
type piece struct {
	fs    *FS
	op    *dataOp
	c     *Client
	p     subOp
	ot    *obs.OpTimer
	stage stage

	srv      *server
	gid      int   // redundancy group, -1 when unprotected
	locked   bool  // a write holding its stripe lock
	lockUnit int64 // the lock's unit in the file's lock table
	epoch    int   // srv.epoch when the request reached it
	diskOff  int64
	svc      sim.Time // service time of the queued stage
	enq      sim.Time // when the queued stage was submitted

	// Group fan-out (memberIO): outstanding member I/Os, whether a
	// reconstruction source crashed, and the survivor that ships a
	// reconstructed read.
	pending int
	failed  bool
	first   *server
}

func (fs *FS) newPiece(op *dataOp, c *Client, p subOp, ot *obs.OpTimer) *piece {
	pc := fs.freePieces.Get()
	*pc = piece{fs: fs, op: op, c: c, p: p, ot: ot}
	op.pending++
	return pc
}

// queue submits the piece's next stage to q.
func (pc *piece) queue(next stage, q *sim.Server, svc sim.Time) {
	pc.stage, pc.svc, pc.enq = next, svc, pc.fs.eng.Now()
	q.SubmitHandler(svc, pc)
}

// queued charges the finished stage's wait in its queue.
func (pc *piece) queued(now sim.Time) {
	pc.ot.Add(obs.StageQueue, float64(now-pc.enq-pc.svc))
}

// netDone charges a finished link transfer: its service time as
// network, the rest of its sojourn as queueing.
func (pc *piece) netDone(now sim.Time) {
	pc.ot.Add(obs.StageNet, float64(pc.svc))
	pc.queued(now)
}

// diskDetail charges a disk access's positioning and transfer time.
func (pc *piece) diskDetail(det disk.AccessDetail) {
	pc.ot.Add(obs.StageDiskSeek, det.SeekSec)
	pc.ot.Add(obs.StageDiskRotation, det.RotationSec)
	pc.ot.Add(obs.StageDiskTransfer, det.TransferSec)
}

// arrive reports the piece's outcome to its op and recycles the piece.
func (pc *piece) arrive(err error) {
	fs, op := pc.fs, pc.op
	*pc = piece{}
	fs.freePieces.Put(pc)
	fs.finishPiece(op, err)
}

// Handle resumes the piece when the event it waits on fires.
func (pc *piece) Handle() {
	fs := pc.fs
	now := fs.eng.Now()
	switch pc.stage {
	case writeClientNIC:
		pc.netDone(now)
		pc.lockThenSend()
	case writeLock:
		pc.ot.Add(obs.StageLockWait, float64(now-pc.enq))
		pc.sendWrite()
	case writeRPC:
		// RPC arrival at a dead server: nothing answers, the client's
		// timeout fires, and any stripe lock it held sits out its lease.
		if pc.srv.down {
			pc.failWrite()
			return
		}
		pc.epoch = pc.srv.epoch
		pc.queue(writeServerNIC, pc.srv.nic, sim.Time(float64(pc.p.size)/fs.Cfg.ServerNetBW))
	case writeServerNIC:
		pc.netDone(now)
		if pc.srv.epoch != pc.epoch {
			// Crashed while the payload was in its NIC queue.
			pc.failWrite()
			return
		}
		pc.diskWrite()
	case writeDisk:
		pc.queued(now)
		// The epoch comparison is what fails a write in flight when its
		// server crashed: the acknowledgment died with it.
		if pc.srv.epoch != pc.epoch {
			pc.failWrite()
			return
		}
		// Fresh bytes replace whatever rot had accumulated in the range.
		pc.srv.corr.Repair(pc.diskOff+pc.p.offIn, pc.p.size, now)
		if pc.gid >= 0 {
			// Erasure-coded: the group's redundancy fragments update
			// before the client's ack, like object-RAID parity, and the
			// stripe lock covers the update.
			fs.writeFragments(pc)
			return
		}
		pc.finishWrite()
	case readRPC:
		pc.srv, pc.gid = fs.dataServer(pc.op.st, pc.p.unit)
		switch {
		case !pc.srv.down:
			pc.diskRead()
		case pc.gid >= 0:
			fs.readReconstruct(pc)
		default:
			fs.failOp(pc.arrive)
		}
	case readHole:
		pc.queued(now)
		pc.toClient()
	case readDisk:
		pc.queued(now)
		if pc.srv.epoch != pc.epoch {
			fs.failOp(pc.arrive)
			return
		}
		// The bytes are off the platter: this is where a checksum (or the
		// lack of one) decides whether latent corruption is caught.
		if pc.srv.corr.FaultIn(pc.diskOff+pc.p.offIn, pc.p.size, now) {
			fs.readCorrupted(pc.srv, pc.gid, pc.diskOff, pc.deliver, pc.arrive)
			return
		}
		pc.deliver()
	case readServerNIC:
		pc.netDone(now)
		if pc.srv.epoch != pc.epoch {
			fs.failOp(pc.arrive)
			return
		}
		pc.toClient()
	case readReconstructNIC:
		pc.netDone(now)
		pc.toClient()
	case readClientNIC:
		pc.netDone(now)
		pc.arrive(nil)
	default:
		panic(fmt.Sprintf("pfs: piece event in stage %d", pc.stage))
	}
}

// lockThenSend runs once a write's payload has crossed the client's
// link: it resolves the piece's server and, when the file system models
// locks, queues for the stripe lock before sending.
func (pc *piece) lockThenSend() {
	fs := pc.fs
	pc.srv, pc.gid = fs.dataServer(pc.op.st, pc.p.unit)
	if fs.Cfg.LockRevoke <= 0 {
		pc.sendWrite()
		return
	}
	lockSpan := fs.Cfg.LockGranularity
	if lockSpan <= 0 {
		lockSpan = fs.Cfg.StripeUnit
	}
	pc.locked = true
	pc.lockUnit = (pc.p.unit*fs.Cfg.StripeUnit + pc.p.offIn) / lockSpan
	pc.stage, pc.enq = writeLock, fs.eng.Now()
	fs.acquire(pc.op.st, pc.lockUnit, pc.c.id, pc)
}

func (pc *piece) sendWrite() {
	fs := pc.fs
	pc.ot.Add(obs.StageRPC, float64(fs.Cfg.RPCLatency))
	pc.stage = writeRPC
	fs.eng.ScheduleHandler(fs.Cfg.RPCLatency, pc)
}

// diskWrite issues the piece's disk I/O at its server, allocating the
// unit's extent on first write. A partial overwrite of an existing unit
// pays read-modify-write when the file system models it.
func (pc *piece) diskWrite() {
	fs, s, p := pc.fs, pc.srv, pc.p
	ext := s.fileSlot(pc.op.st.id, p.unit)
	existed := *ext >= 0
	if !existed {
		*ext = s.next
		s.next += fs.Cfg.StripeUnit
	}
	pc.diskOff = *ext
	full := p.offIn == 0 && p.size == fs.Cfg.StripeUnit
	var svc sim.Time
	var det disk.AccessDetail
	if !full && fs.Cfg.RMWPartialStripe && existed {
		svc, det = s.rmw(pc.diskOff, fs.Cfg.StripeUnit, p.size)
	} else {
		svc, det = s.write(pc.diskOff+p.offIn, p.size)
	}
	pc.diskDetail(det)
	pc.queue(writeDisk, s.dq, svc)
}

// finishWrite acknowledges a written piece and hands its stripe lock on.
func (pc *piece) finishWrite() {
	if pc.locked {
		pc.fs.release(pc.op.st, pc.lockUnit)
	}
	pc.arrive(nil)
}

// failWrite fails a write piece at a dead server. A stripe lock it held
// is not cleanly released: waiters sit out the DLM lease (expireLease)
// before the manager reclaims it.
func (pc *piece) failWrite() {
	if pc.locked {
		pc.fs.expireLease(pc.op.st, pc.lockUnit)
	}
	pc.fs.failOp(pc.arrive)
}

// diskRead serves a read piece from its home server's own disk. A unit
// never written is a hole: an empty pass through the disk queue.
func (pc *piece) diskRead() {
	s, p := pc.srv, pc.p
	diskOff, ok := s.fileExtent(pc.op.st.id, p.unit)
	if !ok {
		pc.queue(readHole, s.dq, 0)
		return
	}
	pc.diskOff = diskOff
	svc, det := s.read(diskOff+p.offIn, p.size)
	pc.diskDetail(det)
	pc.epoch = s.epoch
	pc.queue(readDisk, s.dq, svc)
}

// deliver ships a read piece's verified bytes from its home server.
func (pc *piece) deliver() {
	pc.queue(readServerNIC, pc.srv.nic, sim.Time(float64(pc.p.size)/pc.fs.Cfg.ServerNetBW))
}

// toClient ships a read piece's bytes over the client's link.
func (pc *piece) toClient() {
	pc.queue(readClientNIC, pc.c.nic, sim.Time(float64(pc.p.size)/pc.fs.Cfg.ClientNetBW))
}
