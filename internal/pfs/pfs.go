// Package pfs simulates a striped parallel file system of the kind deployed
// at the PDSI sites (PanFS, Lustre, GPFS): files are striped over object
// storage servers, a distributed lock manager mediates concurrent writers,
// and unaligned partial-stripe writes pay a read-modify-write penalty at
// the server.
//
// The model exists to reproduce the pathology PLFS removes: when N clients
// concurrently issue small, unaligned, strided writes into one shared file
// (the N-1 checkpoint pattern), stripe-lock ping-ponging serializes the
// clients, read-modify-write doubles and randomizes the disk traffic, and
// aggregate bandwidth collapses to a tiny fraction of the hardware. The
// same hardware streams at full speed when each client appends to its own
// file (N-N) — which is exactly the transformation PLFS performs.
//
// Servers can also fail: InjectFaults arms a sim.FaultPlan so object
// storage servers crash and recover mid-run. A down server times out
// in-flight and new operations (ErrServerDown after FailTimeout) and
// holds its stripe locks until the LeaseExpiry lease lapses. Whether its
// data stays readable depends on Config.Redundancy. The zero value is
// unprotected: a read of a down server's stripe fails like any other op
// against it, and a checksum mismatch cannot be repaired. With k+m set,
// data lives in erasure-coded groups with declustered placement (see
// redundancy.go): degraded reads reconstruct from any k surviving group
// members at cost proportional to the group width, a crash fans real
// rebuild traffic out across the population's disk queues, and
// overlapping failures beyond m surface as typed, counted data-loss
// events (ErrDataLoss, pfs.loss.*) rather than silent reads. With no
// plan injected the fault machinery is inert and the event trajectory is
// byte-identical to a build without it.
package pfs

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Config describes a file system deployment.
type Config struct {
	Name string

	// MetricPrefix is prepended to every instrument name the file
	// system registers ("pfs.mds", "pfs.oss00.*", ...). Empty for a
	// standalone file system. A sim.Cluster running several file-system
	// pods gives each pod a unique prefix ("pod03.") so that every
	// order-sensitive instrument — histograms, quantiles, op-timer
	// stage sets, time series — has a single writer shard, which is
	// what keeps snapshots byte-identical across shard counts. The
	// prefix changes instrument names only, never model behavior.
	MetricPrefix string

	// NumServers is the number of object storage servers.
	NumServers int

	// StripeUnit is the striping granularity in bytes.
	StripeUnit int64

	// ServerDisk is the geometry of each server's backing store.
	ServerDisk disk.Geometry

	// DisksPerServer aggregates several spindles per server (bandwidth
	// scales, positioning does not improve).
	DisksPerServer int

	// ServerNetBW is each server's ingest/egress bandwidth, bytes/second.
	ServerNetBW float64

	// ClientNetBW is each client's link bandwidth, bytes/second.
	ClientNetBW float64

	// RPCLatency is the fixed per-operation messaging overhead.
	RPCLatency sim.Time

	// LockRevoke is the cost of transferring a stripe lock between
	// clients (revocation round trip through the lock manager). Zero
	// disables lock modeling.
	LockRevoke sim.Time

	// LockGranularity is the byte span covered by one writer lock. Zero
	// defaults to StripeUnit. Lustre-style optimistic extent locks cover
	// very large ranges, so unrelated small writers conflict constantly —
	// the dominant N-1 cost on such systems.
	LockGranularity int64

	// MetadataOp is the service time of one metadata operation (create,
	// open) at the metadata server.
	MetadataOp sim.Time

	// MetadataThreads is the metadata server's concurrency (0 means 1).
	// Even with parallel threads, creates within one parent directory
	// serialize on that directory's lock — the contention PLFS's hostdir
	// spreading exists to avoid.
	MetadataThreads int

	// RMWPartialStripe: when true, a write that does not cover a full
	// stripe unit forces the server to read the unit and write it back.
	RMWPartialStripe bool

	// Fault-tolerance knobs. They take effect only once a FaultPlan is
	// injected (FS.InjectFaults); a fault-free run is bit-identical with
	// any values here, so the layer is zero-cost when disabled.

	// FailTimeout is how long a request to a crashed server waits before
	// erroring back to the client (the RPC timeout). Zero defaults to
	// 25ms — a typical aggressive OSS ping interval.
	FailTimeout sim.Time

	// LeaseExpiry is how long a stripe lock held by a failed write
	// lingers before the lock manager reclaims it for waiters — the DLM
	// lease granted by the dead server must time out before anyone else
	// may touch the stripe. Zero reclaims immediately.
	LeaseExpiry sim.Time

	// Checksums enables per-stripe-unit crc32c verification on every
	// read: a mismatch against injected corruption (InjectCorruption)
	// triggers reconstruction from the unit's redundancy group and an
	// in-place rewrite instead of returning rotten bytes, or fails the
	// read with ErrCorruptData when there is no group to rebuild from.
	// Off, corrupt reads succeed silently (the pfs.integrity.silent_reads
	// counter is the only witness). With no corruption injected the flag
	// changes nothing.
	Checksums bool

	// Redundancy places data in k+m erasure-coded redundancy groups with
	// declustered placement and real rebuild traffic (see the Redundancy
	// type). The zero value leaves data unprotected.
	Redundancy Redundancy
}

// Validate reports a descriptive error for an unusable configuration.
func (c Config) Validate() error {
	switch {
	case c.NumServers < 1:
		return fmt.Errorf("pfs: NumServers %d < 1", c.NumServers)
	case c.StripeUnit < 1:
		return fmt.Errorf("pfs: StripeUnit %d < 1", c.StripeUnit)
	case c.ServerNetBW <= 0 || c.ClientNetBW <= 0:
		return fmt.Errorf("pfs: non-positive network bandwidth")
	case c.DisksPerServer < 1:
		return fmt.Errorf("pfs: DisksPerServer %d < 1", c.DisksPerServer)
	}
	if c.Redundancy.Enabled() {
		if err := c.Redundancy.Validate(); err != nil {
			return err
		}
		if c.NumServers < c.Redundancy.Width()+1 {
			return fmt.Errorf("pfs: %d servers cannot host %d+%d groups plus a rebuild spare",
				c.NumServers, c.Redundancy.K, c.Redundancy.M)
		}
	}
	return nil
}

// PanFSLike is an object-RAID file system with a modest stripe unit and
// per-stripe parity, so partial-stripe writes are expensive.
func PanFSLike(servers int) Config {
	return Config{
		Name:             "panfs-like",
		NumServers:       servers,
		StripeUnit:       64 << 10,
		ServerDisk:       disk.Enterprise2006(),
		DisksPerServer:   4,
		ServerNetBW:      1e9 / 8 * 0.9, // ~GbE payload
		ClientNetBW:      1e9 / 8 * 0.9,
		RPCLatency:       sim.Time(100e-6),
		LockRevoke:       sim.Time(600e-6),
		MetadataOp:       sim.Time(1e-3),
		MetadataThreads:  4,
		RMWPartialStripe: true,
	}
}

// LustreLike has a large stripe size and an aggressive distributed lock
// manager; false sharing on its wide stripes is the dominant N-1 cost.
func LustreLike(servers int) Config {
	return Config{
		Name:             "lustre-like",
		NumServers:       servers,
		StripeUnit:       1 << 20,
		ServerDisk:       disk.Enterprise2006(),
		DisksPerServer:   4,
		ServerNetBW:      1e9 / 8 * 0.9,
		ClientNetBW:      1e9 / 8 * 0.9,
		RPCLatency:       sim.Time(100e-6),
		LockRevoke:       sim.Time(900e-6),
		LockGranularity:  16 << 20, // optimistic wide extent locks
		MetadataOp:       sim.Time(1.2e-3),
		MetadataThreads:  4,
		RMWPartialStripe: false, // no parity RMW, but extent-lock ping-pong remains
	}
}

// GPFSLike uses mid-size blocks with byte-range-ish locking (modeled as
// stripe locks with a cheaper revoke) and RMW on partial blocks.
func GPFSLike(servers int) Config {
	return Config{
		Name:             "gpfs-like",
		NumServers:       servers,
		StripeUnit:       256 << 10,
		ServerDisk:       disk.Enterprise2006(),
		DisksPerServer:   4,
		ServerNetBW:      1e9 / 8 * 0.9,
		ClientNetBW:      1e9 / 8 * 0.9,
		RPCLatency:       sim.Time(100e-6),
		LockRevoke:       sim.Time(400e-6),
		MetadataOp:       sim.Time(0.8e-3),
		MetadataThreads:  4,
		RMWPartialStripe: true,
	}
}

// AllPresets returns the three deployment presets used in Figure 8.
func AllPresets(servers int) []Config {
	return []Config{PanFSLike(servers), LustreLike(servers), GPFSLike(servers)}
}

type fileState struct {
	id   int
	name string
	size int64
	// locks holds the file's writer locks, indexed by lock unit (byte
	// offset / lock span). A lock is held for the duration of the write
	// (through the disk), so concurrent writers to one stripe serialize —
	// the distributed-lock-manager behaviour that makes false sharing so
	// expensive on real deployments.
	locks []stripeLock
}

// lock returns the file's lock for a lock unit, growing the table to
// cover it.
func (st *fileState) lock(unit int64) *stripeLock {
	for int64(len(st.locks)) <= unit {
		st.locks = append(st.locks, stripeLock{owner: -1})
	}
	return &st.locks[unit]
}

type server struct {
	idx  int
	nic  *sim.Server
	dsk  *disk.Disk
	dq   *sim.Server // disk queue (capacity = DisksPerServer)
	next int64       // next free byte on this server's disk

	// ext maps a file's stripe units to disk offsets: ext[file id][unit /
	// stride], -1 where no extent is allocated. Without redundancy a
	// file's units rotate over the servers, so stride is NumServers and
	// the table holds only this server's units; with redundancy the group
	// map places units anywhere, and stride is 1.
	ext    [][]int64
	stride int64
	// ec holds the group-unit regions of the redundancy groups this
	// server stores a share of, in (gid descending, slot) order — the
	// order a scrub pass visits them.
	ec []ecRegion

	// Fault state. epoch increments on every crash so that operations in
	// flight when the server dies can detect, at completion time, that
	// their acknowledgment was lost.
	down  bool
	epoch int

	// corr tracks this server's drive-level latent corruption; nil (the
	// common case) means the drive never lies.
	corr *disk.Corruptor

	// repairing deduplicates concurrent repairs of one rotten unit: a
	// scrub and a checksummed read that detect the same disk offset share
	// a single reconstruction instead of double-repairing (nil until the
	// first repair).
	repairing map[int64][]func(error)

	tally *ossTally // this server's entry in the FS's tally
}

// read, write and rmw are the server's only ways to its disk: each
// charges the disk model and counts one pfs.ossNN.ops plus its bytes in
// bytes_read or bytes_written, and returns the service time and its
// split.
func (s *server) read(off, size int64) (sim.Time, disk.AccessDetail) {
	s.tally.ops++
	s.tally.bytesR += size
	return s.dsk.AccessTimed(off, size)
}

func (s *server) write(off, size int64) (sim.Time, disk.AccessDetail) {
	s.tally.ops++
	s.tally.bytesW += size
	return s.dsk.AccessTimed(off, size)
}

// rmw is a partial overwrite of size bytes into the existing unit at
// off: the unit is read, modified and written back, two unit-sized
// accesses counted as one op of size bytes written.
func (s *server) rmw(off, unit, size int64) (sim.Time, disk.AccessDetail) {
	s.tally.ops++
	s.tally.bytesW += size
	s.tally.rmw++
	t1, d1 := s.dsk.AccessTimed(off, unit)
	t2, d2 := s.dsk.AccessTimed(off, unit)
	return t1 + t2, disk.AccessDetail{
		SeekSec:     d1.SeekSec + d2.SeekSec,
		RotationSec: d1.RotationSec + d2.RotationSec,
		TransferSec: d1.TransferSec + d2.TransferSec,
	}
}

// ecRegion is one group-unit region on a server: the UnitBytes its
// fragment for (gid, slot) occupies.
type ecRegion struct {
	gid, slot int
	off       int64
}

// fileExtent returns the disk offset of a file unit's extent on s.
func (s *server) fileExtent(file int, unit int64) (int64, bool) {
	if file < len(s.ext) {
		if t, i := s.ext[file], unit/s.stride; i < int64(len(t)) && t[i] >= 0 {
			return t[i], true
		}
	}
	return 0, false
}

// fileSlot returns the table entry for a file unit on s (-1 while no
// extent is allocated), growing the table to cover it.
func (s *server) fileSlot(file int, unit int64) *int64 {
	for len(s.ext) <= file {
		s.ext = append(s.ext, nil)
	}
	i := unit / s.stride
	for int64(len(s.ext[file])) <= i {
		s.ext[file] = append(s.ext[file], -1)
	}
	return &s.ext[file][i]
}

// eachFileExtent calls fn for every file unit with an extent on s, in
// (file, unit) order.
func (s *server) eachFileExtent(fn func(file int, unit int64)) {
	for file, t := range s.ext {
		// The units of a file on this server: unit = i*stride + phase.
		phase := (int64(s.idx-file)%s.stride + s.stride) % s.stride
		for i, off := range t {
			if off >= 0 {
				fn(file, int64(i)*s.stride+phase)
			}
		}
	}
}

// ecSearch finds the position of group region (gid, slot) in s.ec, or
// where it would be inserted.
func (s *server) ecSearch(gid, slot int) (int, bool) {
	lo, hi := 0, len(s.ec)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r := s.ec[m]; r.gid > gid || (r.gid == gid && r.slot < slot) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s.ec) && s.ec[lo].gid == gid && s.ec[lo].slot == slot
}

// FS is a simulated parallel file system instance bound to a sim.Engine.
type FS struct {
	Cfg     Config
	eng     *sim.Engine
	servers []*server
	mds     *sim.Server
	files   map[string]*fileState
	nextID  int

	// dirLocks serialize creates per parent directory.
	dirLocks map[string]*stripeLock

	// Free lists of the data path's pooled state machines (ops.go). They
	// live on the FS, which is confined to one shard, so no two engines
	// ever share one.
	freeOps     sim.FreeList[dataOp]
	freePieces  sim.FreeList[piece]
	freeMembers sim.FreeList[memberIO]
	// live is readReconstruct's scratch list of survivors.
	live []liveMember

	// tally is every count the file system keeps; its Stats methods and
	// the registry both read it.
	tally *tally

	// red is the k+m redundancy layer (see redundancy.go); nil with the
	// zero Redundancy config, which leaves data unprotected.
	red *redState

	hLockWait *obs.Histogram // nil when uninstrumented

	// Latency-analytics handles (see analytics.go). Nil unless the
	// registry opted in via EnableOpTimers/EnableTimeSeries, so default
	// runs and snapshots are untouched.
	otWrite  *obs.OpTimerSet
	otRead   *obs.OpTimerSet
	tsOn     bool
	inflight int64
}

// tally holds the file system's counts. It is allocated apart from the
// FS: the registry's functions read it after the run, and because they
// capture only the tally, a finished run's FS is freed while its counts
// stay readable.
type tally struct {
	metadataOps        int64
	lockWaits, revokes int64
	faults             FaultStats
	integrity          IntegrityStats
	rebuild            RebuildStats
	loss               LossStats
	oss                []ossTally
}

// ossTally is one server's disk traffic: accesses, bytes each way, and
// the read-modify-writes among the writes.
type ossTally struct{ ops, bytesW, bytesR, rmw int64 }

// rmwOps sums the servers' read-modify-writes.
func (t *tally) rmwOps() int64 {
	var n int64
	for i := range t.oss {
		n += t.oss[i].rmw
	}
	return n
}

// publish registers *v as the named counter. The function captures v
// alone, a field of a tally.
func publish(reg *obs.Registry, name string, v *int64) {
	reg.CounterFunc(name, func() int64 { return *v })
}

// stripeLock is a FIFO mutex; stripe locks add an ownership-transfer
// penalty (grant), directory locks do not.
type stripeLock struct {
	waiters sim.FIFO[lockWaiter]
	owner   int32 // client that last held the lock, -1 for none
	held    bool
}

type lockWaiter struct {
	client int
	h      sim.Handler
	since  sim.Time // when the waiter queued, for contention histograms
}

// take claims a free lock and reports true, or queues h behind the
// holder and reports false.
func (lk *stripeLock) take(client int, h sim.Handler, now sim.Time) bool {
	if lk.held {
		lk.waiters.Push(lockWaiter{client: client, h: h, since: now})
		return false
	}
	lk.held = true
	return true
}

// handoff pops the next waiter in FIFO order, or frees the lock and
// reports false when nobody waits.
func (lk *stripeLock) handoff() (lockWaiter, bool) {
	if !lk.held {
		panic("pfs: release of unheld lock")
	}
	if lk.waiters.Len() == 0 {
		lk.held = false
		return lockWaiter{}, false
	}
	return lk.waiters.Pop(), true
}

// New creates a file system on the given engine.
func New(eng *sim.Engine, cfg Config) *FS {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	threads := cfg.MetadataThreads
	if threads < 1 {
		threads = 1
	}
	fs := &FS{
		Cfg:      cfg,
		eng:      eng,
		files:    make(map[string]*fileState),
		dirLocks: make(map[string]*stripeLock),
		mds:      sim.NewServer(eng, threads),
		tally:    &tally{oss: make([]ossTally, cfg.NumServers)},
	}
	stride := int64(cfg.NumServers)
	if cfg.Redundancy.Enabled() {
		stride = 1
	}
	for i := 0; i < cfg.NumServers; i++ {
		fs.servers = append(fs.servers, &server{
			idx:    i,
			nic:    sim.NewServer(eng, 1),
			dsk:    disk.New(cfg.ServerDisk),
			dq:     sim.NewServer(eng, cfg.DisksPerServer),
			stride: stride,
			tally:  &fs.tally.oss[i],
		})
	}
	if cfg.Redundancy.Enabled() {
		fs.red = newRedState(cfg)
	}
	fs.instrument()
	return fs
}

// metric prepends the configured pod prefix to an instrument name.
func (fs *FS) metric(name string) string { return fs.Cfg.MetricPrefix + name }

// instrument registers the file system's probes in the engine's metrics
// registry. A no-op (leaving all handles nil) when the engine is
// uninstrumented.
func (fs *FS) instrument() {
	reg := fs.eng.Metrics()
	if reg == nil {
		return
	}
	t := fs.tally
	fs.mds.Instrument(fs.metric("pfs.mds"))
	publish(reg, fs.metric("pfs.metadata_ops"), &t.metadataOps)
	publish(reg, fs.metric("pfs.lock.revokes"), &t.revokes)
	publish(reg, fs.metric("pfs.lock.waits"), &t.lockWaits)
	reg.CounterFunc(fs.metric("pfs.rmw_ops"), t.rmwOps)
	fs.hLockWait = reg.Histogram(fs.metric("pfs.lock.wait_s"), obs.TimeBuckets())
	publish(reg, fs.metric("pfs.faults.crashes"), &t.faults.Crashes)
	publish(reg, fs.metric("pfs.faults.recoveries"), &t.faults.Recoveries)
	publish(reg, fs.metric("pfs.faults.failed_ops"), &t.faults.FailedOps)
	publish(reg, fs.metric("pfs.faults.degraded_reads"), &t.faults.DegradedReads)
	publish(reg, fs.metric("pfs.faults.lease_expiries"), &t.faults.LeaseExpiries)
	for i, s := range fs.servers {
		name := fs.metric(fmt.Sprintf("pfs.oss%02d", i))
		s.nic.Instrument(name + ".nic")
		s.dq.Instrument(name + ".disk")
		publish(reg, name+".ops", &s.tally.ops)
		publish(reg, name+".bytes_written", &s.tally.bytesW)
		publish(reg, name+".bytes_read", &s.tally.bytesR)
		publish(reg, name+".rmw_ops", &s.tally.rmw)
		d := s.dsk
		reg.GaugeFunc(name+".disk.seek_s", func() float64 { return d.Stats().SeekSec })
		reg.GaugeFunc(name+".disk.rotation_s", func() float64 { return d.Stats().RotationSec })
		reg.GaugeFunc(name+".disk.transfer_s", func() float64 { return d.Stats().TransferSec })
		reg.GaugeFunc(name+".disk.positioned_frac", func() float64 {
			st := d.Stats()
			if st.Accesses == 0 {
				return 0
			}
			return float64(st.Positioned) / float64(st.Accesses)
		})
	}
	fs.otWrite = reg.OpTimerSet(fs.metric("pfs.write"))
	fs.otRead = reg.OpTimerSet(fs.metric("pfs.read"))
	if fs.red != nil {
		fs.armRedundancy(reg)
	}
	if w := reg.SeriesWindow(); w > 0 {
		fs.armSeries(reg, w)
	}
}

// Engine returns the engine the file system is bound to.
func (fs *FS) Engine() *sim.Engine { return fs.eng }

// MetadataOps reports completed metadata operations.
func (fs *FS) MetadataOps() int64 { return fs.tally.metadataOps }

// serverFor maps a file's stripe unit to a server, offsetting by file id so
// different files start their stripe rotation on different servers (as real
// deployments randomize placement) instead of convoying on server 0.
func (fs *FS) serverFor(st *fileState, unit int64) *server {
	return fs.servers[(st.id+int(unit))%len(fs.servers)]
}

// acquire grants the file's stripe lock for a lock unit to client and
// runs h, paying the revoke penalty when ownership transfers; contended
// requests queue FIFO.
func (fs *FS) acquire(st *fileState, unit int64, client int, h sim.Handler) {
	lk := st.lock(unit)
	if !lk.take(client, h, fs.eng.Now()) {
		fs.tally.lockWaits++
		return
	}
	fs.grant(lk, client, h)
}

func (fs *FS) grant(lk *stripeLock, client int, h sim.Handler) {
	delay := sim.Time(0)
	if lk.owner != -1 && lk.owner != int32(client) {
		delay = fs.Cfg.LockRevoke
		fs.tally.revokes++
	}
	lk.owner = int32(client)
	if delay > 0 {
		fs.eng.ScheduleHandler(delay, h)
	} else {
		h.Handle()
	}
}

// release hands the stripe lock to the next waiter, if any.
func (fs *FS) release(st *fileState, unit int64) {
	next, ok := st.locks[unit].handoff()
	if !ok {
		return
	}
	fs.hLockWait.Observe(float64(fs.eng.Now() - next.since))
	fs.grant(&st.locks[unit], next.client, next.h)
}

// acquireDir serializes metadata operations within one parent directory.
func (fs *FS) acquireDir(dir string, client int, fn func()) {
	lk := fs.dirLocks[dir]
	if lk == nil {
		lk = &stripeLock{owner: -1}
		fs.dirLocks[dir] = lk
	}
	if lk.take(client, sim.HandlerFunc(fn), fs.eng.Now()) {
		lk.owner = int32(client)
		fn()
	}
}

func (fs *FS) releaseDir(dir string) {
	lk := fs.dirLocks[dir]
	if lk == nil {
		panic("pfs: release of unheld directory lock")
	}
	if next, ok := lk.handoff(); ok {
		lk.owner = int32(next.client)
		next.h.Handle()
	}
}
