// Package workload generates the parallel checkpoint I/O patterns of the
// PDSI application studies (S3D, FLASH, Chombo, and the anonymous LANL
// codes visualized by Ninjat) and drives them against the simulated
// parallel file system, either directly or through the PLFS
// transformation. It is the harness behind Figure 2 (S3D weak-scaling
// checkpoint time) and Figure 8 (PLFS speedups).
package workload

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// Pattern is a checkpoint access pattern.
type Pattern int

// Checkpoint patterns. N1Strided is the pathological pattern PLFS targets:
// every rank's records interleave throughout one shared file. N1Segmented
// gives each rank one contiguous region of the shared file. NN writes one
// file per rank. PLFSPattern interposes PLFS: per-rank data and index logs
// regardless of the logical pattern.
const (
	N1Strided Pattern = iota
	N1Segmented
	NN
	PLFSPattern
)

func (p Pattern) String() string {
	switch p {
	case N1Strided:
		return "N-1 strided"
	case N1Segmented:
		return "N-1 segmented"
	case NN:
		return "N-N"
	case PLFSPattern:
		return "PLFS"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Spec describes one checkpoint phase.
type Spec struct {
	Ranks        int
	BytesPerRank int64
	// RecordSize is the application write granularity. Small odd sizes
	// (e.g. 47001 bytes) model the unaligned variable-sized records that
	// formatted-I/O libraries emit.
	RecordSize int64
	Pattern    Pattern

	// PLFSHostdirs spreads container logs; only used by PLFSPattern.
	PLFSHostdirs int

	// PLFSIndexFlushEvery appends the buffered index to the index log every
	// this many records (0 = flush only at close). Only for PLFSPattern.
	PLFSIndexFlushEvery int

	// CompressRatio > 1 enables on-the-fly checkpoint compression (a PLFS
	// follow-on): the data volume written shrinks by the ratio while each
	// rank pays CPU time at CompressBW bytes/second over the *uncompressed*
	// stream. Only used by PLFSPattern.
	CompressRatio float64
	// CompressBW is the per-rank compression throughput in bytes/second
	// (defaults to 500 MB/s when zero and CompressRatio > 1).
	CompressBW float64
}

// Validate reports problems with the spec.
func (s Spec) Validate() error {
	switch {
	case s.Ranks < 1:
		return fmt.Errorf("workload: Ranks %d < 1", s.Ranks)
	case s.BytesPerRank < 1:
		return fmt.Errorf("workload: BytesPerRank %d < 1", s.BytesPerRank)
	case s.RecordSize < 1:
		return fmt.Errorf("workload: RecordSize %d < 1", s.RecordSize)
	}
	return nil
}

// Result reports one checkpoint phase.
type Result struct {
	Spec Spec
	// Elapsed covers the write phase; SetupElapsed the preceding
	// create/open phase (where hostdir spreading and directory-lock
	// contention show up).
	Elapsed      sim.Time
	SetupElapsed sim.Time
	TotalBytes   int64
	// Bandwidth is aggregate payload bandwidth in bytes/second.
	Bandwidth float64
	// MetadataOps counts metadata-server operations issued.
	MetadataOps int64
}

// Op is one synchronous I/O step in a rank's program.
type Op struct {
	File string
	Off  int64
	Size int64
	// Read marks the op as a read; the default is a write.
	Read bool
	// CPU is compute time spent before the I/O is issued (e.g. on-the-fly
	// checkpoint compression).
	CPU sim.Time
}

// op aliases Op internally.
type op = Op

// indexEntryBytes is the serialized size of a PLFS index record, matching
// internal/core.
const indexEntryBytes = 36

// rankOps builds the synchronous op sequence one rank issues, already
// aggregated the way a client write-back cache would: contiguous runs are
// flushed in stripe-unit-sized, stripe-aligned chunks. Strided patterns
// cannot be aggregated (each record is discontiguous with the last), which
// is precisely why they behave so badly on the backing file system.
func rankOps(spec Spec, unit int64, rank int) []op {
	nRecs := spec.BytesPerRank / spec.RecordSize
	if nRecs == 0 {
		nRecs = 1
	}
	var ops []op
	switch spec.Pattern {
	case N1Strided:
		for i := int64(0); i < nRecs; i++ {
			off := (i*int64(spec.Ranks) + int64(rank)) * spec.RecordSize
			ops = append(ops, op{File: "/shared", Off: off, Size: spec.RecordSize})
		}
	case N1Segmented:
		base := int64(rank) * spec.BytesPerRank
		ops = appendChunked(ops, "/shared", base, spec.BytesPerRank, unit)
	case NN:
		name := fmt.Sprintf("/ckpt.%d", rank)
		ops = appendChunked(ops, name, 0, spec.BytesPerRank, unit)
	case PLFSPattern:
		data := fmt.Sprintf("/container/hostdir.%d/data.%d", rank%max(spec.PLFSHostdirs, 1), rank)
		index := fmt.Sprintf("/container/hostdir.%d/index.%d", rank%max(spec.PLFSHostdirs, 1), rank)
		// Data log: pure sequential append of every record, aggregated.
		// Compression shrinks the written volume and charges CPU per chunk.
		dataBytes := spec.BytesPerRank
		var cpuPerByte float64
		if spec.CompressRatio > 1 {
			dataBytes = int64(float64(spec.BytesPerRank) / spec.CompressRatio)
			bw := spec.CompressBW
			if bw <= 0 {
				bw = 500e6
			}
			// CPU charged over the uncompressed bytes each written byte
			// represents.
			cpuPerByte = spec.CompressRatio / bw
		}
		start := len(ops)
		ops = appendChunked(ops, data, 0, dataBytes, unit)
		if cpuPerByte > 0 {
			for i := start; i < len(ops); i++ {
				ops[i].CPU = sim.Time(float64(ops[i].Size) * cpuPerByte)
			}
		}
		// Index log: small appends, flushed periodically.
		flushEvery := int64(spec.PLFSIndexFlushEvery)
		if flushEvery <= 0 {
			flushEvery = nRecs
		}
		var idxOff int64
		for done := int64(0); done < nRecs; done += flushEvery {
			n := flushEvery
			if nRecs-done < n {
				n = nRecs - done
			}
			ops = append(ops, op{File: index, Off: idxOff, Size: n * indexEntryBytes})
			idxOff += n * indexEntryBytes
		}
	}
	return ops
}

// appendChunked splits a contiguous region into stripe-aligned unit-sized
// writes (plus unaligned head/tail remnants).
func appendChunked(ops []op, file string, base, length, unit int64) []op {
	off := base
	end := base + length
	for off < end {
		n := unit - off%unit
		if n > end-off {
			n = end - off
		}
		ops = append(ops, op{File: file, Off: off, Size: n})
		off += n
	}
	return ops
}

// filesFor lists the files a rank must create before writing.
func filesFor(spec Spec, rank int) []string {
	switch spec.Pattern {
	case N1Strided, N1Segmented:
		if rank == 0 {
			return []string{"/shared"}
		}
		return nil
	case NN:
		return []string{fmt.Sprintf("/ckpt.%d", rank)}
	case PLFSPattern:
		hd := rank % max(spec.PLFSHostdirs, 1)
		return []string{
			fmt.Sprintf("/container/hostdir.%d/data.%d", hd, rank),
			fmt.Sprintf("/container/hostdir.%d/index.%d", hd, rank),
		}
	}
	return nil
}

// Program is one rank's workload: files it must create, then a sequence
// of synchronous writes (each waits for the previous).
type Program struct {
	Creates []string
	Ops     []Op
}

// programs builds every rank's program for one checkpoint phase of spec.
func programs(spec Spec, unit int64) []Program {
	progs := make([]Program, spec.Ranks)
	for r := range progs {
		progs[r] = Program{Creates: filesFor(spec, r), Ops: rankOps(spec, unit, r)}
	}
	return progs
}

// rankSet is the rank loop every single-file-system harness shares: one
// client and one open-file cache per rank, kept across phases so a file
// is opened once per run.
type rankSet struct {
	eng     *sim.Engine
	fs      *pfs.FS
	progs   []Program
	clients []*pfs.Client
	handles []map[string]*pfs.File
}

// opStep issues op o of rank r on the open file h and calls next when
// the rank may move on to its following op. ot is the rank's stage
// timer, restarted for this op (nil when op timers are off): the step
// passes it to every attempt and, once the op succeeds, to
// rankSet.observe.
type opStep func(r int, h *pfs.File, o Op, ot *obs.OpTimer, next func())

func newRankSet(eng *sim.Engine, fs *pfs.FS, progs []Program) *rankSet {
	rs := &rankSet{
		eng:     eng,
		fs:      fs,
		progs:   progs,
		clients: make([]*pfs.Client, len(progs)),
		handles: make([]map[string]*pfs.File, len(progs)),
	}
	for r := range progs {
		rs.clients[r] = fs.NewClient(r)
		rs.handles[r] = make(map[string]*pfs.File)
	}
	return rs
}

// create issues every rank's creates and calls start once all of them
// have completed (at once when there are none).
func (rs *rankSet) create(start func()) {
	var n int
	for _, p := range rs.progs {
		n += len(p.Creates)
	}
	if n == 0 {
		start()
		return
	}
	created := sim.NewBarrier(rs.eng, n, func(sim.Time) { start() })
	for r, p := range rs.progs {
		for _, name := range p.Creates {
			rs.clients[r].Create(name, func(*pfs.File) { created.Arrive() })
		}
	}
}

// phase runs every rank's ops concurrently, each rank in program order:
// open the file on first use, spend the op's CPU time (e.g.
// compression), then step. done receives the phase's elapsed time once
// the last rank finishes.
func (rs *rankSet) phase(step opStep, done func(elapsed sim.Time)) {
	start := rs.eng.Now()
	finished := sim.NewBarrier(rs.eng, len(rs.progs), func(at sim.Time) { done(at - start) })
	runs := make([]rankRun, len(rs.progs))
	for r := range runs {
		rr := &runs[r]
		*rr = rankRun{rs: rs, r: r, ops: rs.progs[r].Ops, handles: rs.handles[r], step: step, finished: finished}
		rr.next, rr.opened, rr.compute = rr.advance, rr.open, rr.perform
		rr.issue()
	}
}

// observe folds a succeeded op's stage timer into the file system's
// read or write quantiles.
func (rs *rankSet) observe(o Op, ot *obs.OpTimer) {
	if o.Read {
		rs.fs.FinishReadOp(ot)
	} else {
		rs.fs.FinishWriteOp(ot)
	}
}

// direct returns the step of a harness that issues each op once,
// straight to pfs: a succeeded op's timer is observed, a failed op's
// error goes to failed, and the rank moves on either way. Each rank's
// completion is bound once.
func (rs *rankSet) direct(failed func(r int, err error)) opStep {
	type inflight struct {
		o    Op
		ot   *obs.OpTimer
		next func()
	}
	cur := make([]inflight, len(rs.progs))
	completes := make([]func(error), len(rs.progs))
	for r := range completes {
		completes[r] = func(err error) {
			c := &cur[r]
			if err == nil {
				rs.observe(c.o, c.ot)
			} else {
				failed(r, err)
			}
			c.next()
		}
	}
	return func(r int, h *pfs.File, o Op, ot *obs.OpTimer, next func()) {
		cur[r] = inflight{o: o, ot: ot, next: next}
		if o.Read {
			rs.clients[r].ReadOp(h, o.Off, o.Size, ot, completes[r])
		} else {
			rs.clients[r].WriteOp(h, o.Off, o.Size, ot, completes[r])
		}
	}
}

// rankRun is one rank's place in a phase. Its continuations are bound
// once per phase and its stage timer is restarted for each op, so an op
// allocates nothing of its own. Reusing the timer is safe because no
// layer charges it after the op's done runs: pfs calls done after the
// op's last piece has charged it, and bb's absorbOp calls done after
// recycling itself. A layer that kept charging after done would fold
// one op's stages into the next.
type rankRun struct {
	rs       *rankSet
	r        int
	ops      []Op
	handles  map[string]*pfs.File
	i        int       // the op in flight
	h        *pfs.File // its open file
	step     opStep
	finished *sim.Barrier
	timer    obs.OpTimer

	// advance, open and perform, bound once per phase; compute runs
	// perform once the op's CPU time is spent.
	next    func()
	opened  func(*pfs.File)
	compute func()
}

// issue starts op i, or arrives at the barrier after the last one: open
// the file on first use, spend the op's CPU time, then step.
func (rr *rankRun) issue() {
	if rr.i == len(rr.ops) {
		rr.finished.Arrive()
		return
	}
	o := &rr.ops[rr.i]
	h, ok := rr.handles[o.File]
	if !ok {
		rr.rs.clients[rr.r].Open(o.File, rr.opened)
		return
	}
	rr.h = h
	if o.CPU > 0 {
		rr.rs.eng.Schedule(o.CPU, rr.compute)
		return
	}
	rr.perform()
}

// open caches the handle of a file the rank opened and issues the op
// that needed it.
func (rr *rankRun) open(h *pfs.File) {
	rr.handles[rr.ops[rr.i].File] = h
	rr.issue()
}

// perform starts the op's stage timer, after its CPU time, and steps.
func (rr *rankRun) perform() {
	o := rr.ops[rr.i]
	var ot *obs.OpTimer
	if o.Read {
		ot = rr.rs.fs.StartReadOp(&rr.timer)
	} else {
		ot = rr.rs.fs.StartWriteOp(&rr.timer)
	}
	rr.step(rr.r, rr.h, o, ot, rr.next)
}

func (rr *rankRun) advance() {
	rr.i++
	rr.issue()
}

// RunPrograms executes arbitrary per-rank programs against a fresh file
// system built from cfg: all creates complete (a barrier), then every rank
// runs its op sequence, and Elapsed covers the write phase. TotalBytes
// sums op sizes. The metrics registry and tracer (either may be nil) are
// attached to the engine before the model is built, so every substrate's
// instruments land in them. Runs are deterministic, so two probed runs of
// the same programs produce byte-identical metrics snapshots.
func RunPrograms(cfg pfs.Config, progs []Program, reg *obs.Registry, tr *obs.Tracer) Result {
	eng := sim.NewEngine()
	eng.Instrument(reg, tr)
	fs := pfs.New(eng, cfg)
	rs := newRankSet(eng, fs, progs)

	// No fault plan runs here, so pfs returns no error; only a bug can
	// make one.
	step := rs.direct(func(r int, err error) {
		panic(fmt.Sprintf("workload: rank %d: fault-free op failed: %v", r, err))
	})
	var result Result
	rs.create(func() {
		result.SetupElapsed = eng.Now()
		rs.phase(step, func(elapsed sim.Time) { result.Elapsed = elapsed })
	})

	eng.Run()
	for _, p := range progs {
		for _, o := range p.Ops {
			result.TotalBytes += o.Size
		}
	}
	if result.Elapsed > 0 {
		result.Bandwidth = float64(result.TotalBytes) / float64(result.Elapsed)
	}
	result.MetadataOps = fs.MetadataOps()
	return result
}

// Run executes the checkpoint phase on a fresh file system built from cfg
// and returns the timing result. The phase is: all ranks create their
// files (the shared-file patterns create once), barrier, all ranks issue
// their ops synchronously (each rank waits for its previous op), barrier.
// The metrics registry and tracer may be nil.
func Run(cfg pfs.Config, spec Spec, reg *obs.Registry, tr *obs.Tracer) Result {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	result := RunPrograms(cfg, programs(spec, cfg.StripeUnit), reg, tr)
	result.Spec = spec
	// Per-spec accounting: payload is BytesPerRank per rank (PLFS ops also
	// include index bytes; report payload).
	result.TotalBytes = int64(spec.Ranks) * spec.BytesPerRank
	if result.Elapsed > 0 {
		result.Bandwidth = float64(result.TotalBytes) / float64(result.Elapsed)
	}
	return result
}

// Speedup runs the same logical checkpoint directly (N-1 strided) and
// through PLFS, returning both results and the bandwidth ratio — the
// Figure 8 experiment for one configuration.
func Speedup(cfg pfs.Config, ranks int, bytesPerRank, recordSize int64) (direct, viaPLFS Result, ratio float64) {
	base := Spec{
		Ranks:        ranks,
		BytesPerRank: bytesPerRank,
		RecordSize:   recordSize,
		Pattern:      N1Strided,
	}
	direct = Run(cfg, base, nil, nil)
	p := base
	p.Pattern = PLFSPattern
	p.PLFSHostdirs = 32
	p.PLFSIndexFlushEvery = 64
	viaPLFS = Run(cfg, p, nil, nil)
	if direct.Bandwidth > 0 {
		ratio = viaPLFS.Bandwidth / direct.Bandwidth
	}
	return direct, viaPLFS, ratio
}
