package pfs

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/sim"
)

// This file is the redundancy model: k+m Reed-Solomon-style redundancy
// groups with declustered placement — the layer the report's petascale
// reliability argument turns on. The population is carved into
// redundancy groups of width k+m whose members a placement.Declustered
// window hash spreads over the cluster, so every drive's rebuild
// partners fan out across (a configurable fraction of) the whole
// population. A crash starts a real rebuild: every group the
// dead drive belonged to re-creates its share onto a spare by reading
// chunks from k surviving members — ordinary disk-queue traffic that
// competes with foreground checkpoints and reads, which is where
// rebuild-storm interference comes from. Degraded reads reconstruct from
// any k survivors at a cost proportional to the group width, and the
// (m+1)-th overlapping failure inside a group is a counted, typed data-
// loss event (ErrDataLoss, pfs.loss.*) — never a silent read, never a
// panic. With the zero Redundancy value none of this exists: data is
// unprotected, and a down server's reads fail with ErrServerDown.

// ErrDataLoss is returned by ReadOp completions when more than m
// members of the piece's redundancy group are concurrently failed —
// fewer than k survivors remain, so nothing can reconstruct the data.
var ErrDataLoss = errors.New("pfs: data loss: redundancy group lost more than m members")

// Redundancy configures k+m erasure-coded redundancy groups with
// declustered placement. The zero value disables the layer entirely and
// leaves data unprotected.
type Redundancy struct {
	// K is the number of data fragments per group; M the number of
	// redundancy fragments. A group survives any M concurrent member
	// failures and reconstructs reads from any K survivors.
	K, M int

	// Declustering is the fraction of the population over which one
	// group's members (and therefore one drive's rebuild partners)
	// spread, in (0, 1]; zero defaults to 1.0 — fully declustered,
	// every server a potential partner. Small values confine groups to
	// narrow windows, approaching traditional RAID sets.
	Declustering float64

	// GroupsPerServer is how many redundancy groups each server
	// participates in (default 4). More groups spread a dead drive's
	// rebuild over more partners but widen its failure exposure.
	GroupsPerServer int

	// UnitBytes is each member's share of one group — the bytes a
	// rebuild must re-create per group (default 8 MiB).
	UnitBytes int64

	// ChunkBytes is the rebuild I/O granularity: each chunk is k
	// parallel partner reads plus one spare write (default 2 MiB). A
	// rebuild runs at full speed, one chunk after another.
	ChunkBytes int64
}

// Enabled reports whether the redundancy layer is active.
func (r Redundancy) Enabled() bool { return r.K > 0 || r.M > 0 }

// Width is the group size k+m.
func (r Redundancy) Width() int { return r.K + r.M }

// Validate reports a descriptive error for an unusable configuration.
func (r Redundancy) Validate() error {
	switch {
	case r.K < 1 || r.M < 1:
		return fmt.Errorf("pfs: redundancy needs K >= 1 and M >= 1, got %d+%d", r.K, r.M)
	case r.Declustering < 0 || r.Declustering > 1:
		return fmt.Errorf("pfs: declustering ratio %v outside (0, 1]", r.Declustering)
	case r.GroupsPerServer < 0:
		return fmt.Errorf("pfs: GroupsPerServer %d < 0", r.GroupsPerServer)
	case r.UnitBytes < 0 || r.ChunkBytes < 0:
		return fmt.Errorf("pfs: negative rebuild sizes")
	}
	return nil
}

func (r Redundancy) groupsPerServer() int {
	if r.GroupsPerServer > 0 {
		return r.GroupsPerServer
	}
	return 4
}

func (r Redundancy) unitBytes() int64 {
	if r.UnitBytes > 0 {
		return r.UnitBytes
	}
	return 8 << 20
}

func (r Redundancy) chunkBytes() int64 {
	if r.ChunkBytes > 0 {
		return r.ChunkBytes
	}
	return 2 << 20
}

func (r Redundancy) ratio() float64 {
	if r.Declustering > 0 {
		return r.Declustering
	}
	return 1
}

// RebuildStats aggregates the declustered-rebuild activity over a run.
type RebuildStats struct {
	// Started counts rebuilds launched (one per applied crash);
	// Completed counts rebuilds that re-created every group; Aborted
	// counts rebuilds cancelled because the server recovered first.
	Started, Completed, Aborted int64

	// GroupsRebuilt counts groups whose share was fully re-created onto
	// a spare; AbandonedGroups counts groups a rebuild had to give up on
	// (fewer than k live members, or no spare).
	GroupsRebuilt, AbandonedGroups int64

	// Bytes is the reconstructed data written to spares.
	Bytes int64

	// Busy sums completed rebuild durations; MaxDuration is the longest.
	Busy, MaxDuration sim.Time
}

// LossStats aggregates data-loss accounting over a run.
type LossStats struct {
	// Events counts transitions of any group beyond m concurrent
	// failures (each overlapping (m+1)-th crash is one event).
	Events int64

	// Groups counts distinct groups that ever exceeded m concurrent
	// failures; Bytes is their data payload (k * UnitBytes each).
	Groups int64
	Bytes  int64

	// Reads counts client reads that failed with ErrDataLoss.
	Reads int64
}

// ecGroup is one k+m redundancy group. members holds server indices,
// data slots first ([0,K)), redundancy slots after ([K,K+M)). failed
// counts members currently crashed and not yet rebuilt or recovered.
// reserved holds spares claimed by in-flight rebuild chains: two members
// of one group can be rebuilding concurrently, and without the claim
// both chains could pick the same spare for different slots.
type ecGroup struct {
	members  []int32
	reserved []int32
	failed   int
	lost     bool // ever exceeded m concurrent failures
}

func (g *ecGroup) has(idx int32) bool {
	for _, m := range g.members {
		if m == idx {
			return true
		}
	}
	return false
}

// slotOf returns the slot server idx holds in the group, or -1.
func (g *ecGroup) slotOf(idx int) int {
	for slot, m := range g.members {
		if int(m) == idx {
			return slot
		}
	}
	return -1
}

func (g *ecGroup) reservedHas(idx int32) bool {
	for _, r := range g.reserved {
		if r == idx {
			return true
		}
	}
	return false
}

func (g *ecGroup) reserve(idx int32) { g.reserved = append(g.reserved, idx) }

func (g *ecGroup) unreserve(idx int32) {
	for i, r := range g.reserved {
		if r == idx {
			g.reserved = append(g.reserved[:i], g.reserved[i+1:]...)
			return
		}
	}
}

// ecIncident tracks one crashed server's rebuild: the groups still open
// (not yet rebuilt — including groups whose chain abandoned, since their
// member is still crashed and only the server's recovery can restore the
// failed count), and whether a recovery cancelled the job.
type ecIncident struct {
	server    int
	start     sim.Time
	gids      []int32 // affected groups, in deterministic order
	open      map[int32]bool
	pending   int // rebuild chains still running
	cancelled bool
}

// redState is the redundancy layer's runtime state.
type redState struct {
	cfg       Redundancy
	groups    []ecGroup
	byServer  [][]int32 // server index -> groups it belongs to
	incidents map[int]*ecIncident
}

// newRedState builds the population-scale group map: G = servers *
// GroupsPerServer / width groups, each placed by the declustered window
// hash. Construction is pure (no events), so it cannot perturb the sim.
func newRedState(cfg Config) *redState {
	r := cfg.Redundancy
	width := r.Width()
	groups := cfg.NumServers * r.groupsPerServer() / width
	if groups < 1 {
		groups = 1
	}
	strat := placement.Declustered{Ratio: r.ratio()}
	red := &redState{
		cfg:       r,
		groups:    make([]ecGroup, groups),
		byServer:  make([][]int32, cfg.NumServers),
		incidents: make(map[int]*ecIncident),
	}
	for g := 0; g < groups; g++ {
		members := strat.Place(placement.Chunk{File: 0x5245445f, Index: int64(g)}, cfg.NumServers, width)
		ms := make([]int32, len(members))
		for i, m := range members {
			ms[i] = int32(m)
			red.byServer[m] = append(red.byServer[m], int32(g))
		}
		red.groups[g].members = ms
	}
	return red
}

// armRedundancy registers the pfs.rebuild.* and pfs.loss.* instruments.
// Called from instrument() only when the layer is enabled, so
// unprotected configurations register none of them.
func (fs *FS) armRedundancy(reg *obs.Registry) {
	rb, ls := &fs.tally.rebuild, &fs.tally.loss
	publish(reg, fs.metric("pfs.rebuild.started"), &rb.Started)
	publish(reg, fs.metric("pfs.rebuild.completed"), &rb.Completed)
	publish(reg, fs.metric("pfs.rebuild.aborted"), &rb.Aborted)
	publish(reg, fs.metric("pfs.rebuild.groups_rebuilt"), &rb.GroupsRebuilt)
	publish(reg, fs.metric("pfs.rebuild.bytes"), &rb.Bytes)
	publish(reg, fs.metric("pfs.loss.events"), &ls.Events)
	publish(reg, fs.metric("pfs.loss.groups"), &ls.Groups)
	publish(reg, fs.metric("pfs.loss.bytes"), &ls.Bytes)
	publish(reg, fs.metric("pfs.loss.reads"), &ls.Reads)
	reg.GaugeFunc(fs.metric("pfs.rebuild.busy_s"), func() float64 { return float64(rb.Busy) })
}

// RebuildStats returns a copy of the rebuild accounting so far (zero
// without redundancy).
func (fs *FS) RebuildStats() RebuildStats { return fs.tally.rebuild }

// LossStats returns a copy of the data-loss accounting so far (zero
// without redundancy).
func (fs *FS) LossStats() LossStats { return fs.tally.loss }

// RedundancyGroups reports the number of redundancy groups (0 without
// redundancy).
func (fs *FS) RedundancyGroups() int {
	if fs.red == nil {
		return 0
	}
	return len(fs.red.groups)
}

// groupOf maps a file's stripe unit into its redundancy group: a hash of
// (file, unit/k) picks the group, unit%k the data slot — k consecutive
// units of a file share a group, their redundancy fragments live on the
// group's m trailing members.
func (red *redState) groupOf(fileID int, unit int64) (gid, slot int) {
	k := int64(red.cfg.K)
	gid = int(placement.Mix64(uint64(fileID+1)*0x9e3779b97f4a7c15^uint64(unit/k)) % uint64(len(red.groups)))
	slot = int(unit % k)
	return gid, slot
}

// dataServer resolves the server storing a file's stripe unit and its
// redundancy group (-1 when unprotected, where placement is the plain
// stripe rotation). With redundancy the group map is authoritative, so a
// rebuilt slot's traffic follows the member replacement to the spare.
func (fs *FS) dataServer(st *fileState, unit int64) (*server, int) {
	if fs.red == nil {
		return fs.serverFor(st, unit), -1
	}
	gid, slot := fs.red.groupOf(st.id, unit)
	return fs.servers[fs.red.groups[gid].members[slot]], gid
}

// ecExtent returns (allocating on first use) the disk offset of server
// s's share of group gid — the UnitBytes region its fragment for that
// slot occupies. Both the redundancy-fragment write path and the rebuild
// read/write paths address group data through it.
func (fs *FS) ecExtent(s *server, gid, slot int) int64 {
	i, ok := s.ecSearch(gid, slot)
	if !ok {
		s.ec = slices.Insert(s.ec, i, ecRegion{gid: gid, slot: slot, off: s.next})
		s.next += fs.red.cfg.unitBytes()
	}
	return s.ec[i].off
}

// ecPosIn maps a piece to an offset inside a group-unit region.
func (fs *FS) ecPosIn(p subOp) int64 {
	return (p.unit*fs.Cfg.StripeUnit + p.offIn) % fs.red.cfg.unitBytes()
}

// liveMember pairs a group member with its slot for extent addressing.
type liveMember struct {
	srv  *server
	slot int
}

// ecLiveMembers returns up to want live members of gid, excluding the
// slot being reconstructed, in member order — the "any k survivors" a
// reconstruction reads from. It appends to buf[:0], so a caller that
// keeps its buffer allocates only once.
func (fs *FS) ecLiveMembers(buf []liveMember, gid, exclude, want int) []liveMember {
	g := &fs.red.groups[gid]
	out := buf[:0]
	for slot, idx := range g.members {
		if slot == exclude {
			continue
		}
		s := fs.servers[idx]
		if s.down {
			continue
		}
		out = append(out, liveMember{srv: s, slot: slot})
		if len(out) == want {
			break
		}
	}
	return out
}

// memberIO is one group member's disk I/O on behalf of a piece: a
// redundancy fragment write, or one of a degraded read's k
// reconstruction reads. Each carries its own service time, queue time
// and epoch, since the members' queues complete independently. Pooled
// on the FS.
type memberIO struct {
	pc    *piece
	srv   *server
	svc   sim.Time
	enq   sim.Time
	epoch int
}

// memberIO submits svc of disk work on s for pc.
func (fs *FS) memberIO(pc *piece, s *server, svc sim.Time) {
	m := fs.freeMembers.Get()
	*m = memberIO{pc: pc, srv: s, svc: svc, enq: fs.eng.Now(), epoch: s.epoch}
	pc.pending++
	s.dq.SubmitHandler(svc, m)
}

// Handle completes one member I/O; the last one resumes the piece. A
// member that crashed meanwhile fails a reconstruction. A fragment write
// acknowledges regardless: the group's failed count already accounts
// for a dead holder's staleness.
func (m *memberIO) Handle() {
	pc, fs := m.pc, m.pc.fs
	pc.ot.Add(obs.StageQueue, float64(fs.eng.Now()-m.enq-m.svc))
	if m.srv.epoch != m.epoch {
		pc.failed = true
	}
	*m = memberIO{}
	fs.freeMembers.Put(m)
	pc.pending--
	if pc.pending > 0 {
		return
	}
	if pc.stage == writeFragments {
		pc.finishWrite()
		return
	}
	if pc.failed {
		fs.failOp(pc.arrive)
		return
	}
	pc.queue(readReconstructNIC, pc.first.nic, sim.Time(float64(pc.p.size)/fs.Cfg.ServerNetBW))
}

// writeFragments fans a data piece's redundancy updates to the group's
// live m fragment holders: each pays a fragment-sized disk write on its
// own queues before the client's write acknowledges — the erasure-coding
// write amplification. Crashed fragment holders are skipped; the group's
// failed count already accounts for their staleness.
func (fs *FS) writeFragments(pc *piece) {
	red := fs.red
	g := &red.groups[pc.gid]
	posIn := fs.ecPosIn(pc.p)
	pc.stage = writeFragments
	for slot := red.cfg.K; slot < len(g.members); slot++ {
		s := fs.servers[g.members[slot]]
		if s.down {
			continue
		}
		off := fs.ecExtent(s, pc.gid, slot)
		svc, det := s.write(off+posIn, pc.p.size)
		pc.diskDetail(det)
		fs.memberIO(pc, s, svc)
	}
	if pc.pending == 0 {
		pc.finishWrite()
	}
}

// readReconstruct serves a piece whose home member is down by reading
// from any k live members of its group in parallel — k fragment-sized
// disk reads, so the degraded cost is proportional to the group width —
// and shipping the decoded data from the first survivor's NIC.
func (fs *FS) readReconstruct(pc *piece) {
	red := fs.red
	g := &red.groups[pc.gid]
	if g.failed > red.cfg.M {
		fs.lossRead(pc.arrive)
		return
	}
	fs.live = fs.ecLiveMembers(fs.live, pc.gid, g.slotOf(pc.srv.idx), red.cfg.K)
	if len(fs.live) < red.cfg.K {
		fs.failOp(pc.arrive)
		return
	}
	fs.tally.faults.DegradedReads++
	posIn := fs.ecPosIn(pc.p)
	var total, base sim.Time
	pc.stage, pc.failed, pc.first = readReconstruct, false, fs.live[0].srv
	for i, m := range fs.live {
		off := fs.ecExtent(m.srv, pc.gid, m.slot)
		svc, det := m.srv.read(off+posIn, pc.p.size)
		pc.diskDetail(det)
		total += svc
		if i == 0 {
			base = svc
		}
		fs.memberIO(pc, m.srv, svc)
	}
	// The reads beyond one nominal fragment are the reconstruction cost.
	pc.ot.Add(obs.StageDegraded, float64(total-base))
}

// lossRead fails a read of a group with more than m concurrent failures:
// a counted, typed data-loss event delivered after the RPC timeout —
// never a silent read, never a panic.
func (fs *FS) lossRead(done func(error)) {
	fs.tally.loss.Reads++
	fs.eng.Schedule(fs.FailTimeout(), func() { done(ErrDataLoss) })
}

// ecOnCrash is the redundancy layer's CrashTarget hook: bump every
// affected group's failed count (counting loss events past m), then fan
// the rebuild out — one chain per group, all running concurrently
// against the surviving partners' disk queues.
func (fs *FS) ecOnCrash(srv *server) {
	red := fs.red
	gids := append([]int32(nil), red.byServer[srv.idx]...)
	if len(gids) == 0 {
		// A server in no groups has nothing to rebuild; counting a
		// zero-duration rebuild here would dilute the duration stats.
		return
	}
	inc := &ecIncident{
		server:  srv.idx,
		start:   fs.eng.Now(),
		gids:    gids,
		open:    make(map[int32]bool, len(gids)),
		pending: len(gids),
	}
	red.incidents[srv.idx] = inc
	loss := &fs.tally.loss
	for _, gid := range gids {
		g := &red.groups[gid]
		g.failed++
		if g.failed > red.cfg.M {
			loss.Events++
			if !g.lost {
				g.lost = true
				loss.Groups++
				loss.Bytes += int64(red.cfg.K) * red.cfg.unitBytes()
			}
		}
		inc.open[gid] = true
	}
	fs.tally.rebuild.Started++
	for _, gid := range gids {
		fs.rebuildGroup(inc, int(gid))
	}
}

// ecOnRecover is the redundancy layer's RecoverTarget hook: the server's
// data is back, so groups not yet rebuilt regain their member and the
// remaining rebuild chains stand down at their next chunk boundary.
// Groups already re-created on spares keep the spare — the recovered
// drive simply no longer serves them.
func (fs *FS) ecOnRecover(srv *server) {
	red := fs.red
	inc := red.incidents[srv.idx]
	if inc == nil || inc.cancelled {
		return
	}
	inc.cancelled = true
	for _, gid := range inc.gids {
		if inc.open[gid] {
			delete(inc.open, gid)
			red.groups[gid].failed--
		}
	}
	if inc.pending == 0 {
		// Every chain had already finished; abandoned groups kept the
		// record alive for exactly this decrement, and nothing else will
		// retire it now.
		delete(red.incidents, srv.idx)
	}
}

// ecGroupDone closes one group's rebuild chain. A completed group leaves
// the incident and drops its failed count — the spare holds its share
// now. An abandoned group stays open: its member is still crashed and
// not rebuilt, so only the server's recovery (ecOnRecover) may restore
// the failed count.
func (fs *FS) ecGroupDone(inc *ecIncident, gid int32, completed bool) {
	red := fs.red
	if inc.open[gid] {
		if completed {
			delete(inc.open, gid)
			red.groups[gid].failed--
			fs.tally.rebuild.GroupsRebuilt++
		} else {
			fs.tally.rebuild.AbandonedGroups++
		}
	}
	inc.pending--
	if inc.pending == 0 {
		fs.ecRebuildFinished(inc)
	}
}

// ecRebuildFinished retires an incident once every chain has drained.
// An incident with abandoned groups still open stays registered so a
// later recovery can restore their failed counts.
func (fs *FS) ecRebuildFinished(inc *ecIncident) {
	red := fs.red
	if len(inc.open) == 0 && red.incidents[inc.server] == inc {
		// A crash→recover→crash sequence may have installed a newer
		// incident for this server; only this one's record is retired.
		delete(red.incidents, inc.server)
	}
	st := &fs.tally.rebuild
	if inc.cancelled {
		st.Aborted++
		return
	}
	dur := fs.eng.Now() - inc.start
	st.Completed++
	st.Busy += dur
	st.MaxDuration = max(st.MaxDuration, dur)
}

// ecPickSpare walks the ring from the dead server for a live server
// outside the group — the distributed spare the group's share is
// re-created on. The pick is reserved in the group, so a concurrent
// chain rebuilding another member of the same group (two crashes at
// once) cannot claim the same spare for a different slot; the chain
// releases the claim when it replaces the member, re-picks, or gives up.
func (fs *FS) ecPickSpare(gid, deadIdx int) *server {
	g := &fs.red.groups[gid]
	n := len(fs.servers)
	for i := 1; i < n; i++ {
		s := fs.servers[(deadIdx+i)%n]
		if !s.down && !g.has(int32(s.idx)) && !g.reservedHas(int32(s.idx)) {
			g.reserve(int32(s.idx))
			return s
		}
	}
	return nil
}

// rebuildGroup re-creates one group's dead share chunk by chunk: each
// chunk is k parallel partner reads (one fragment each, on the partners'
// own disk queues, competing with whatever else those spindles are
// doing) followed by one reconstruction write on the spare. A partner or
// spare death retries the chunk against re-picked survivors; dropping
// below k live members, running out of spares, or a cancellation
// abandons the chain. On completion the spare replaces the dead member
// in the group map and inherits its extents. Either way the chain ends
// in ecGroupDone.
func (fs *FS) rebuildGroup(inc *ecIncident, gid int) {
	red := fs.red
	slot := red.groups[gid].slotOf(inc.server)
	if slot < 0 {
		fs.eng.Schedule(0, func() { fs.ecGroupDone(inc, int32(gid), false) })
		return
	}
	k := red.cfg.K
	c := &rebuildChain{
		fs:      fs,
		inc:     inc,
		gid:     gid,
		slot:    slot,
		live:    make([]liveMember, 0, k),
		readers: make([]chainRead, k),
	}
	for i := range c.readers {
		c.readers[i].c = c
	}
	c.step(0)
}

// rebuildChain is one group's rebuild (rebuildGroup): the Handler of
// its spare writes, with one reader sub-record per partner, all reused
// for every chunk.
type rebuildChain struct {
	fs   *FS
	inc  *ecIncident
	gid  int
	slot int

	spare   *server
	off, n  int64 // the chunk in flight
	epoch   int   // the spare's epoch when its write was issued
	pending int   // partner reads outstanding
	failed  bool  // a partner crashed mid-read

	live    []liveMember // the chunk's partners
	readers []chainRead
}

// chainRead is one partner's chunk read.
type chainRead struct {
	c     *rebuildChain
	srv   *server
	epoch int
}

// step starts the chunk at off, re-picking the spare and partners.
func (c *rebuildChain) step(off int64) {
	fs, red := c.fs, c.fs.red
	g := &red.groups[c.gid]
	if c.inc.cancelled {
		c.finish(false)
		return
	}
	total := red.cfg.unitBytes()
	if off >= total {
		c.finish(true)
		return
	}
	if g.failed > red.cfg.M {
		// Beyond m concurrent failures nothing can be reconstructed.
		c.finish(false)
		return
	}
	if c.spare == nil || c.spare.down {
		if c.spare != nil {
			g.unreserve(int32(c.spare.idx)) // the dead spare's claim
			c.spare = nil
		}
		c.spare = fs.ecPickSpare(c.gid, c.inc.server)
		if c.spare == nil {
			c.finish(false)
			return
		}
		off = 0 // a fresh spare restarts the share
	}
	c.live = fs.ecLiveMembers(c.live, c.gid, c.slot, red.cfg.K)
	if len(c.live) < red.cfg.K {
		c.finish(false)
		return
	}
	c.off, c.n = off, min(red.cfg.chunkBytes(), total-off)
	c.failed, c.pending = false, len(c.live)
	for i, m := range c.live {
		roff := fs.ecExtent(m.srv, c.gid, m.slot)
		svc, _ := m.srv.read(roff+off, c.n)
		r := &c.readers[i]
		r.srv, r.epoch = m.srv, m.srv.epoch
		m.srv.dq.SubmitHandler(svc, r)
	}
}

// Handle completes one partner read; the last one writes the chunk to
// the spare, or retries it against re-picked partners when one crashed.
func (r *chainRead) Handle() {
	c := r.c
	if r.srv.epoch != r.epoch {
		c.failed = true
	}
	c.pending--
	if c.pending > 0 {
		return
	}
	if c.inc.cancelled {
		c.finish(false)
		return
	}
	if c.failed {
		c.step(c.off)
		return
	}
	fs, spare := c.fs, c.spare
	woff := fs.ecExtent(spare, c.gid, c.slot)
	svc, _ := spare.write(woff+c.off, c.n)
	c.epoch = spare.epoch
	spare.dq.SubmitHandler(svc, c)
}

// Handle completes the chain's spare write and moves on to the next
// chunk.
func (c *rebuildChain) Handle() {
	if c.spare.epoch != c.epoch {
		c.step(c.off) // the spare died: step re-picks and restarts
		return
	}
	c.fs.tally.rebuild.Bytes += c.n
	c.off += c.n
	c.step(c.off)
}

// finish releases the chain's spare reservation (the completed path
// converts it into group membership first) before reporting back.
func (c *rebuildChain) finish(completed bool) {
	g := &c.fs.red.groups[c.gid]
	if c.spare != nil {
		g.unreserve(int32(c.spare.idx))
	}
	if completed {
		c.fs.ecReplaceMember(c.gid, c.slot, c.spare)
	}
	c.fs.ecGroupDone(c.inc, int32(c.gid), completed)
}

// ecReplaceMember installs the spare as the group's member for slot and
// migrates the dead server's extents for that (group, slot) to it: the
// re-created data lives on the spare now, so post-rebuild traffic costs
// real disk work there instead of hole-reads.
func (fs *FS) ecReplaceMember(gid, slot int, spare *server) {
	red := fs.red
	g := &red.groups[gid]
	oldIdx := int(g.members[slot])
	g.members[slot] = int32(spare.idx)
	list := red.byServer[oldIdx]
	for i, id := range list {
		if int(id) == gid {
			red.byServer[oldIdx] = append(list[:i], list[i+1:]...)
			break
		}
	}
	red.byServer[spare.idx] = append(red.byServer[spare.idx], int32(gid))
	fs.ecMigrateExtents(fs.servers[oldIdx], spare, gid, slot)
}

// ecMigrateExtents moves the (group, slot) extents — the group-unit
// region plus every file stripe unit mapped to that slot — from the dead
// server's tables to the spare, allocating fresh regions there in
// (region, file, unit) order, so the spare's layout is deterministic.
// An extent the spare already holds keeps its place.
func (fs *FS) ecMigrateExtents(old, spare *server, gid, slot int) {
	red := fs.red
	if i, ok := old.ecSearch(gid, slot); ok {
		old.ec = slices.Delete(old.ec, i, i+1)
		if j, ok := spare.ecSearch(gid, slot); !ok {
			spare.ec = slices.Insert(spare.ec, j, ecRegion{gid: gid, slot: slot, off: spare.next})
			spare.next += red.cfg.unitBytes()
		}
	}
	old.eachFileExtent(func(file int, unit int64) {
		if kgid, kslot := red.groupOf(file, unit); kgid != gid || kslot != slot {
			return
		}
		*old.fileSlot(file, unit) = -1
		if ext := spare.fileSlot(file, unit); *ext < 0 {
			*ext = spare.next
			spare.next += fs.Cfg.StripeUnit
		}
	})
}
