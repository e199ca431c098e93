// Package workload generates the parallel checkpoint I/O patterns of the
// PDSI application studies (S3D, FLASH, Chombo, and the anonymous LANL
// codes visualized by Ninjat) and drives them against the simulated
// parallel file system, either directly or through the PLFS
// transformation. It is the harness behind Figure 2 (S3D weak-scaling
// checkpoint time) and Figure 8 (PLFS speedups).
package workload

import (
	"errors"
	"fmt"

	"repro/internal/bb"
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

// rankSet runs one file system's ranks: every workload harness drives
// its checkpoints through one. A rank keeps its client, open files and
// stage timer across phases, so a file is opened once per run.
type rankSet struct {
	eng   *sim.Engine
	fs    *pfs.FS
	tier  *bb.Tier // when set, writes go through the burst buffer
	ranks []rank

	// A failed attempt is retried up to maxRetries times, the first
	// after backoff and each later one after twice the last, capped at
	// maxBackoff. pfs.ErrDataLoss is never retried: no retry resurrects
	// a lost group.
	maxRetries          int
	backoff, maxBackoff sim.Time

	tally *tally // the run's counts

	// outcome hears how each logical op ended: its latency on success,
	// or the error that ended it. Without one an error panics: a run
	// that injects no fault fails an op only through a bug.
	outcome func(o *Op, lat sim.Time, err error)

	finished *sim.Barrier // the phase in progress
}

// newRankSet builds rank r of progs with client id r on fs, and gives
// each rank a stage timer when op timers are on. The ranks share the
// programs' ops, which must not change while a phase runs.
func newRankSet(fs *pfs.FS, progs []Program) *rankSet {
	rs := &rankSet{eng: fs.Engine(), fs: fs, ranks: make([]rank, len(progs)), tally: new(tally)}
	timed := rs.eng.Metrics().OpTimersEnabled()
	for r := range rs.ranks {
		rk := &rs.ranks[r]
		rk.rs, rk.id, rk.client, rk.ops = rs, r, fs.NewClient(r), progs[r].Ops
		rk.complete = rk.done
		if timed {
			rk.timer = new(obs.OpTimer)
		}
	}
	return rs
}

// create issues every program's creates and calls start once all of
// them have completed (at once when there are none).
func (rs *rankSet) create(progs []Program, start func()) {
	var n int
	for _, p := range progs {
		n += len(p.Creates)
	}
	if n == 0 {
		start()
		return
	}
	created := sim.NewBarrier(rs.eng, n, func(sim.Time) { start() })
	for r, p := range progs {
		for _, name := range p.Creates {
			rs.ranks[r].client.Create(name, func(*pfs.File) { created.Arrive() })
		}
	}
}

// phase runs every rank's program from its first op, the ranks
// concurrently, and passes done the phase's elapsed time once the last
// rank finishes.
func (rs *rankSet) phase(done func(elapsed sim.Time)) {
	start := rs.eng.Now()
	rs.finished = sim.NewBarrier(rs.eng, len(rs.ranks), func(at sim.Time) { done(at - start) })
	for r := range rs.ranks {
		rs.ranks[r].i = 0
		rs.ranks[r].issue()
	}
}

// tally counts a run's checkpoint rounds begun, the retries its ranks
// made, and the ops they dropped. It is allocated apart from the
// rankSet, so the registry's functions, which read it after the run,
// keep only it alive.
type tally struct{ rounds, retries, dropped int64 }

// rank is one rank's place in its program. It issues its ops in order:
// it opens the op's file on first use, spends the op's CPU time (e.g.
// compression), issues the op, and retries a failed attempt. Its
// completion is bound once per run and its stage timer is restarted
// for each logical op, so an op allocates nothing of its own.
//
// The timer spans the whole logical op, every attempt's stages and the
// backoff between them, and is observed once, on success; a dropped op
// never folds in, so the quantiles describe completed operations.
// Reusing the timer is safe because no layer charges it after the
// op's done runs: pfs calls done after the op's last piece has charged
// it, and bb's absorbOp calls done after recycling itself. A layer that
// kept charging after done would fold one op's stages into the next.
type rank struct {
	rs       *rankSet
	ops      []Op
	i        int       // the op in flight
	h        *pfs.File // the file of op i
	client   *pfs.Client
	complete func(error) // done, bound once

	timer   *obs.OpTimer // nil with op timers off
	files   []*pfs.File  // the files the rank has open
	begin   sim.Time     // when the op's first attempt was issued
	backoff sim.Time     // the delay before its next retry
	id      int
	attempt int // the op's retries so far
}

// issue starts op i, or arrives at the phase's barrier after the last
// one.
func (rk *rank) issue() {
	if rk.i == len(rk.ops) {
		rk.rs.finished.Arrive()
		return
	}
	o := &rk.ops[rk.i]
	// h is still the previous op's file, which is usually this op's too.
	if rk.i == 0 || o.File != rk.ops[rk.i-1].File {
		if rk.h = rk.file(o.File); rk.h == nil {
			rk.client.Open(o.File, rk.open)
			return
		}
	}
	rk.attempt = 0
	if o.CPU > 0 {
		rk.rs.eng.ScheduleHandler(o.CPU, rk)
		return
	}
	rk.start()
}

// file returns the rank's handle of the named file, or nil if the rank
// has not opened it.
func (rk *rank) file(name string) *pfs.File {
	for _, h := range rk.files {
		if h.Name() == name {
			return h
		}
	}
	return nil
}

// open keeps a file the rank opened and issues the op that needed it.
func (rk *rank) open(h *pfs.File) {
	rk.files = append(rk.files, h)
	rk.issue()
}

// Handle resumes the rank when its op's CPU time (no attempt made yet)
// or a retry's backoff is over.
func (rk *rank) Handle() {
	if rk.attempt == 0 {
		rk.start()
	} else {
		rk.try()
	}
}

// start restarts the stage timer for the op and makes its first
// attempt.
func (rk *rank) start() {
	rs := rk.rs
	switch {
	case rk.timer == nil:
	case rk.ops[rk.i].Read:
		rs.fs.StartReadOp(rk.timer)
	default:
		rs.fs.StartWriteOp(rk.timer)
	}
	rk.begin, rk.backoff = rs.eng.Now(), rs.backoff
	rk.try()
}

// try makes one attempt at the op: a write goes to the burst-buffer
// tier when there is one, everything else straight to pfs.
func (rk *rank) try() {
	o := &rk.ops[rk.i]
	switch {
	case o.Read:
		rk.client.ReadOp(rk.h, o.Off, o.Size, rk.timer, rk.complete)
	case rk.rs.tier != nil:
		rk.rs.tier.WriteOp(rk.id, rk.h, o.Off, o.Size, rk.timer, rk.complete)
	default:
		rk.client.WriteOp(rk.h, o.Off, o.Size, rk.timer, rk.complete)
	}
}

// done ends an attempt. A failure with a retry left schedules the next
// attempt after the backoff, charged to the timer. Otherwise the op is
// over: a success is observed, the outcome heard, and the rank moves
// on.
func (rk *rank) done(err error) {
	rs, o := rk.rs, &rk.ops[rk.i]
	if err != nil && rk.attempt < rs.maxRetries && !errors.Is(err, pfs.ErrDataLoss) {
		rk.attempt++
		rs.tally.retries++
		d := rk.backoff
		if rk.backoff *= 2; rk.backoff > rs.maxBackoff {
			rk.backoff = rs.maxBackoff
		}
		rk.timer.Add(obs.StageBackoff, float64(d))
		rs.eng.ScheduleHandler(d, rk)
		return
	}
	switch {
	case err == nil && o.Read:
		rs.fs.FinishReadOp(rk.timer)
	case err == nil:
		rs.fs.FinishWriteOp(rk.timer)
	case rs.outcome == nil:
		panic(fmt.Sprintf("workload: rank %d: op failed with no fault injected: %v", rk.id, err))
	}
	if rs.outcome != nil {
		rs.outcome(o, rs.eng.Now()-rk.begin, err)
	}
	rk.i++
	rk.issue()
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
	rs := newRankSet(fs, progs)

	var result Result
	rs.create(progs, func() {
		result.SetupElapsed = eng.Now()
		rs.phase(func(elapsed sim.Time) { result.Elapsed = elapsed })
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
