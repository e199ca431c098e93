package pfs

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// ecConfig is a small erasure-coded deployment sized so tests run in
// milliseconds of sim-time: 256 KiB group units rebuilt in 64 KiB chunks.
func ecConfig(servers, k, m int) Config {
	c := PanFSLike(servers)
	c.FailTimeout = sim.Time(10e-3)
	c.Redundancy = Redundancy{K: k, M: m, UnitBytes: 256 << 10, ChunkBytes: 64 << 10}
	return c
}

func TestRedundancyValidate(t *testing.T) {
	bad := []Redundancy{
		{K: 1},                          // M = 0 while enabled
		{M: 2},                          // K = 0 while enabled
		{K: 4, M: 2, Declustering: 1.5}, // ratio out of range
		{K: 4, M: 2, UnitBytes: -1},
	}
	for _, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an unusable config", r)
		}
	}
	if err := (Redundancy{K: 8, M: 3, Declustering: 0.5}).Validate(); err != nil {
		t.Fatalf("valid redundancy rejected: %v", err)
	}
	// The deployment must fit a group plus a rebuild spare.
	cfg := ecConfig(6, 4, 2)
	if err := cfg.Validate(); err == nil {
		t.Fatal("6 servers accepted for 4+2 groups with no spare")
	}
	if err := ecConfig(7, 4, 2).Validate(); err != nil {
		t.Fatalf("7 servers rejected for 4+2: %v", err)
	}
}

func TestRedundancyZeroValueInert(t *testing.T) {
	// The zero Redundancy is unprotected: no group state, no rebuild or
	// loss accounting or instruments, however the servers fail.
	eng := sim.NewEngine()
	reg := obs.NewRegistry()
	eng.Instrument(reg, nil)
	fs := New(eng, faultConfig(4))
	fs.InjectFaults(sim.NewFaultPlan().
		Add(OSSTarget(0), 0, sim.Time(10e-3)).
		Add(OSSTarget(1), 0, 0))
	cl := fs.NewClient(0)
	cl.Create("/f", func(f *File) {
		cl.WriteOp(f, 0, 1<<20, nil, func(error) {})
	})
	eng.Run()
	if fs.RedundancyGroups() != 0 {
		t.Fatalf("zero-value redundancy built %d groups", fs.RedundancyGroups())
	}
	if st := fs.RebuildStats(); st != (RebuildStats{}) {
		t.Fatalf("zero-value redundancy accumulated rebuild stats %+v", st)
	}
	if ls := fs.LossStats(); ls != (LossStats{}) {
		t.Fatalf("zero-value redundancy accumulated loss stats %+v", ls)
	}
	for name := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, "pfs.rebuild.") || strings.HasPrefix(name, "pfs.loss.") {
			t.Fatalf("zero-value redundancy registered %s", name)
		}
	}
}

func TestECWriteUpdatesRedundancyFragments(t *testing.T) {
	// A data write must fan fragment updates to the group's m redundancy
	// members before acknowledging.
	eng := sim.NewEngine()
	eng.Instrument(obs.NewRegistry(), nil)
	fs := New(eng, ecConfig(12, 4, 2))
	cl := fs.NewClient(0)
	var wrote bool
	cl.Create("/f", func(f *File) {
		cl.WriteOp(f, 0, 64<<10, nil, func(err error) {
			if err != nil {
				t.Errorf("write failed: %v", err)
			}
			wrote = true
		})
	})
	eng.Run()
	if !wrote {
		t.Fatal("write never completed")
	}
	gid, slot := fs.red.groupOf(0, 0)
	g := fs.red.groups[gid]
	home := fs.servers[g.members[slot]]
	if w := home.tally.bytesW; w != 64<<10 {
		t.Fatalf("home member wrote %d bytes, want %d", w, 64<<10)
	}
	frags := 0
	for i := fs.red.cfg.K; i < len(g.members); i++ {
		if fs.servers[g.members[i]].tally.bytesW > 0 {
			frags++
		}
	}
	if frags != fs.red.cfg.M {
		t.Fatalf("%d of %d redundancy members saw fragment writes", frags, fs.red.cfg.M)
	}
}

func TestECDegradedReadReconstructsFromKSurvivors(t *testing.T) {
	eng := sim.NewEngine()
	eng.Instrument(obs.NewRegistry(), nil)
	cfg := ecConfig(12, 4, 2)
	// Big units keep the rebuild running while the degraded read lands —
	// once a spare takes over, reads stop being degraded.
	cfg.Redundancy.UnitBytes = 64 << 20
	cfg.Redundancy.ChunkBytes = 1 << 20
	fs := New(eng, cfg)
	// Home member of file 0, unit 0 crashes after the write settles.
	gid, slot := fs.red.groupOf(0, 0)
	home := int(fs.red.groups[gid].members[slot])
	fs.InjectFaults(sim.NewFaultPlan().Add(OSSTarget(home), sim.Time(1), 0))
	cl := fs.NewClient(0)
	var readErr error
	var read bool
	cl.Create("/f", func(f *File) {
		cl.WriteOp(f, 0, 64<<10, nil, func(error) {})
		eng.Schedule(sim.Time(1.0001), func() {
			cl.ReadOp(f, 0, 64<<10, nil, func(err error) { readErr = err; read = true })
		})
	})
	eng.Run()
	if !read || readErr != nil {
		t.Fatalf("degraded read: done=%v err=%v", read, readErr)
	}
	if fs.FaultStats().DegradedReads == 0 {
		t.Fatal("reconstruction not counted as a degraded read")
	}
	// The decode touched exactly k surviving members' disks.
	readers := 0
	for _, idx := range fs.red.groups[gid].members {
		if int(idx) != home && fs.servers[idx].tally.bytesR > 0 {
			readers++
		}
	}
	if readers < fs.red.cfg.K {
		t.Fatalf("only %d group members served the reconstruction, want >= k=%d",
			readers, fs.red.cfg.K)
	}
}

func TestOverlappingFailuresBeyondMAreTypedLossEvents(t *testing.T) {
	// m=1: two overlapping member failures in one group exceed the
	// redundancy. Reads must fail with ErrDataLoss — counted and typed,
	// never a silent read, never a panic.
	eng := sim.NewEngine()
	reg := obs.NewRegistry()
	eng.Instrument(reg, obs.NewTracer())
	fs := New(eng, ecConfig(12, 4, 1))
	gid, slot := fs.red.groupOf(0, 0)
	members := fs.red.groups[gid].members
	a := int(members[slot])
	b := int(members[(slot+1)%len(members)])
	fs.InjectFaults(sim.NewFaultPlan().
		Add(OSSTarget(a), sim.Time(1), 0).
		Add(OSSTarget(b), sim.Time(1), 0))
	cl := fs.NewClient(0)
	var readErr error
	cl.Create("/f", func(f *File) {
		cl.WriteOp(f, 0, 64<<10, nil, func(error) {})
		eng.Schedule(sim.Time(2), func() {
			cl.ReadOp(f, 0, 64<<10, nil, func(err error) { readErr = err })
		})
	})
	eng.Run()
	if !errors.Is(readErr, ErrDataLoss) {
		t.Fatalf("read of a lost group returned %v, want ErrDataLoss", readErr)
	}
	ls := fs.LossStats()
	if ls.Events < 1 || ls.Groups < 1 || ls.Reads != 1 {
		t.Fatalf("loss accounting %+v, want >=1 events, >=1 groups, exactly 1 read", ls)
	}
	wantBytes := ls.Groups * int64(fs.red.cfg.K) * fs.red.cfg.unitBytes()
	if ls.Bytes != wantBytes {
		t.Fatalf("loss bytes %d, want %d (k * unit per lost group)", ls.Bytes, wantBytes)
	}
	s := reg.Snapshot()
	if s.Counters["pfs.loss.reads"] != 1 {
		t.Fatalf("pfs.loss.reads = %d, want 1", s.Counters["pfs.loss.reads"])
	}
	if int64(s.Counters["pfs.loss.events"]) != ls.Events {
		t.Fatalf("pfs.loss.events = %d, want %d", s.Counters["pfs.loss.events"], ls.Events)
	}
	if int64(s.Counters["pfs.loss.groups"]) != ls.Groups {
		t.Fatalf("pfs.loss.groups = %d, want %d", s.Counters["pfs.loss.groups"], ls.Groups)
	}
}

func TestCrashTriggersDeclusteredRebuild(t *testing.T) {
	// A permanent crash rebuilds every group the dead server belonged to,
	// reading from partners spread across the population and re-creating
	// the shares on spares.
	eng := sim.NewEngine()
	eng.Instrument(obs.NewRegistry(), nil)
	fs := New(eng, ecConfig(16, 4, 2))
	dead := 3
	affected := len(fs.red.byServer[dead])
	if affected == 0 {
		t.Fatal("server 3 belongs to no groups — group map broken")
	}
	fs.InjectFaults(sim.NewFaultPlan().Add(OSSTarget(dead), 0, 0))
	eng.Run()
	st := fs.RebuildStats()
	if st.Started != 1 || st.Completed != 1 || st.Aborted != 0 {
		t.Fatalf("rebuild lifecycle %+v, want exactly one completed", st)
	}
	if st.GroupsRebuilt != int64(affected) {
		t.Fatalf("rebuilt %d groups, want %d", st.GroupsRebuilt, affected)
	}
	if want := int64(affected) * fs.red.cfg.unitBytes(); st.Bytes != want {
		t.Fatalf("rebuilt %d bytes, want %d", st.Bytes, want)
	}
	if st.MaxDuration <= 0 || st.Busy <= 0 {
		t.Fatalf("rebuild consumed no sim-time: %+v", st)
	}
	// The dead server serves no groups anymore; spares took its slots.
	if n := len(fs.red.byServer[dead]); n != 0 {
		t.Fatalf("dead server still mapped to %d groups after rebuild", n)
	}
	// Rebuild reads fanned out across many partners, not one neighbour.
	partners := 0
	for i, s := range fs.servers {
		if i != dead && s.tally.bytesR > 0 {
			partners++
		}
	}
	if partners < fs.red.cfg.K {
		t.Fatalf("rebuild read from only %d partners", partners)
	}
}

func TestRecoveryCancelsRebuild(t *testing.T) {
	// Slow units (64 MiB) make the rebuild long; the server recovers
	// first, so the storm stands down and the groups regain their member.
	eng := sim.NewEngine()
	cfg := ecConfig(12, 4, 2)
	cfg.Redundancy.UnitBytes = 64 << 20
	cfg.Redundancy.ChunkBytes = 1 << 20
	fs := New(eng, cfg)
	fs.InjectFaults(sim.NewFaultPlan().Add(OSSTarget(0), 0, sim.Time(50e-3)))
	eng.Run()
	st := fs.RebuildStats()
	if st.Started != 1 || st.Aborted != 1 || st.Completed != 0 {
		t.Fatalf("rebuild lifecycle %+v, want one aborted", st)
	}
	for gi := range fs.red.groups {
		if fs.red.groups[gi].failed != 0 {
			t.Fatalf("group %d still has failed=%d after recovery", gi, fs.red.groups[gi].failed)
		}
	}
}

func TestAbandonedRebuildRecoveryRestoresFailedCounts(t *testing.T) {
	// Crash 4 of 7 servers at once: every 4+2 group loses at least three
	// members, so every rebuild chain must abandon (fewer than k live
	// members, no live spare). When the servers recover, the abandoned
	// groups' data is back, so every failed count must return to zero —
	// a leak here makes healthy groups report ErrDataLoss forever.
	eng := sim.NewEngine()
	fs := New(eng, ecConfig(7, 4, 2))
	plan := sim.NewFaultPlan()
	for i := 0; i < 4; i++ {
		plan.Add(OSSTarget(i), 0, sim.Time(1))
	}
	fs.InjectFaults(plan)
	eng.Run()
	if st := fs.RebuildStats(); st.AbandonedGroups == 0 {
		t.Fatalf("no rebuild chain abandoned, scenario lost its teeth: %+v", st)
	}
	for gi := range fs.red.groups {
		if f := fs.red.groups[gi].failed; f != 0 {
			t.Fatalf("group %d failed=%d after full recovery, want 0", gi, f)
		}
	}
	if n := len(fs.red.incidents); n != 0 {
		t.Fatalf("%d incidents still registered after full recovery", n)
	}
}

func TestConcurrentGroupRebuildsPickDistinctSpares(t *testing.T) {
	// Two members of one group crash at the same instant — two rebuild
	// chains race for spares. Ring-adjacent dead members make both walks
	// start from the same position, so without spare reservation both
	// chains claim the same server for different slots.
	eng := sim.NewEngine()
	fs := New(eng, ecConfig(16, 4, 2))
	n := len(fs.servers)
	gid, a, b := -1, -1, -1
	for gi := range fs.red.groups {
		g := &fs.red.groups[gi]
		for _, x := range g.members {
			if g.has((x + 1) % int32(n)) {
				gid, a, b = gi, int(x), int((x+1)%int32(n))
				break
			}
		}
		if gid >= 0 {
			break
		}
	}
	if gid < 0 {
		t.Fatal("no group with ring-adjacent members; pick a bigger config")
	}
	fs.InjectFaults(sim.NewFaultPlan().
		Add(OSSTarget(a), 0, 0).
		Add(OSSTarget(b), 0, 0))
	eng.Run()
	seen := make(map[int32]bool)
	for _, m := range fs.red.groups[gid].members {
		if seen[m] {
			t.Fatalf("group %d holds server %d in two slots: %v", gid, m, fs.red.groups[gid].members)
		}
		seen[m] = true
		if fs.servers[m].down {
			t.Fatalf("group %d member %d still down after rebuild", gid, m)
		}
	}
	for si, gids := range fs.red.byServer {
		dup := make(map[int32]bool)
		for _, g := range gids {
			if dup[g] {
				t.Fatalf("byServer[%d] lists group %d twice", si, g)
			}
			dup[g] = true
		}
	}
	for gi := range fs.red.groups {
		if r := fs.red.groups[gi].reserved; len(r) != 0 {
			t.Fatalf("group %d leaked spare reservations %v", gi, r)
		}
	}
}

func TestCrashOfGrouplessServerCountsNoRebuild(t *testing.T) {
	// One group per server over 32 servers leaves 5 groups × 6 slots =
	// 30 memberships, so some servers belong to no group; crashing one
	// must not count a rebuild Started/Completed.
	eng := sim.NewEngine()
	cfg := ecConfig(32, 4, 2)
	cfg.Redundancy.GroupsPerServer = 1
	fs := New(eng, cfg)
	idle := -1
	for i := range fs.servers {
		if len(fs.red.byServer[i]) == 0 {
			idle = i
			break
		}
	}
	if idle < 0 {
		t.Fatal("every server belongs to a group; shrink GroupsPerServer")
	}
	fs.InjectFaults(sim.NewFaultPlan().Add(OSSTarget(idle), 0, 0))
	eng.Run()
	if st := fs.RebuildStats(); st != (RebuildStats{}) {
		t.Fatalf("groupless crash accumulated rebuild stats %+v", st)
	}
	if n := len(fs.red.incidents); n != 0 {
		t.Fatalf("groupless crash left %d incidents registered", n)
	}
}

func TestScrubJoinsInFlightRepairWithoutDoubleCounting(t *testing.T) {
	// Two checksummed readers hit the same rotten unit back to back: the
	// second must join the first's in-flight reconstruction instead of
	// double-repairing, so pfs.integrity.* count one detection and one
	// repair. A scrub pass crossing the repaired unit afterwards finds it
	// clean and adds nothing.
	eng := sim.NewEngine()
	reg := obs.NewRegistry()
	eng.Instrument(reg, obs.NewTracer())
	cfg := ecConfig(12, 4, 2)
	cfg.Checksums = true
	fs := New(eng, cfg)
	cl := fs.NewClient(0)
	var errs []error
	cl.Create("/f", func(f *File) {
		cl.WriteOp(f, 0, 64<<10, nil, func(error) {})
		eng.Schedule(sim.Time(1), func() {
			if n := fs.CorruptExtent("/f", 0, 64<<10); n != 1 {
				t.Errorf("corrupted %d pieces, want 1", n)
			}
			for i := 0; i < 2; i++ {
				cl.ReadOp(f, 0, 64<<10, nil, func(err error) { errs = append(errs, err) })
			}
		})
		eng.Schedule(sim.Time(2), func() { fs.Scrub(nil) })
	})
	eng.Run()
	if len(errs) != 2 || errs[0] != nil || errs[1] != nil {
		t.Fatalf("repaired reads returned %v", errs)
	}
	st := fs.IntegrityStats()
	if st.Detected != 1 || st.Repaired != 1 {
		t.Fatalf("detected=%d repaired=%d, want exactly 1 each (no double repair)",
			st.Detected, st.Repaired)
	}
	s := reg.Snapshot()
	if s.Counters["pfs.integrity.detected"] != 1 || s.Counters["pfs.integrity.repaired"] != 1 {
		t.Fatalf("integrity counters detected=%d repaired=%d, want 1 each",
			s.Counters["pfs.integrity.detected"], s.Counters["pfs.integrity.repaired"])
	}
	if st.ScrubbedUnits == 0 {
		t.Fatal("scrub pass never swept the extents")
	}
}

func TestScrubDuringRebuildStormStaysConsistent(t *testing.T) {
	// A scrub sweeping while a rebuild storm is re-creating shares must
	// neither double-repair nor wedge either chain.
	eng := sim.NewEngine()
	cfg := ecConfig(12, 4, 2)
	cfg.Checksums = true
	fs := New(eng, cfg)
	cl := fs.NewClient(0)
	var scrubbed bool
	cl.Create("/f", func(f *File) {
		cl.WriteOp(f, 0, 1<<20, nil, func(error) {})
	})
	fs.InjectFaults(sim.NewFaultPlan().Add(OSSTarget(2), sim.Time(1), 0))
	eng.Schedule(sim.Time(1.0001), func() {
		fs.Scrub(func(ScrubReport) { scrubbed = true })
	})
	eng.Run()
	if !scrubbed {
		t.Fatal("scrub pass never completed")
	}
	if st := fs.RebuildStats(); st.Completed != 1 {
		t.Fatalf("rebuild did not complete under concurrent scrub: %+v", st)
	}
	if st := fs.IntegrityStats(); st.Detected != 0 || st.Repaired != 0 {
		t.Fatalf("clean run detected/repaired corruption: %+v", st)
	}
}

func TestECRunDeterministicSnapshot(t *testing.T) {
	run := func() string {
		eng := sim.NewEngine()
		reg := obs.NewRegistry()
		eng.Instrument(reg, obs.NewTracer())
		fs := New(eng, ecConfig(12, 4, 2))
		fs.InjectFaults(sim.NewFaultPlan().
			Add(OSSTarget(1), sim.Time(0.5), 0).
			Add(OSSTarget(7), sim.Time(0.75), sim.Time(2)))
		cl := fs.NewClient(0)
		cl.Create("/f", func(f *File) {
			cl.WriteOp(f, 0, 4<<20, nil, func(error) {
				cl.ReadOp(f, 0, 4<<20, nil, func(error) {})
			})
			eng.Schedule(sim.Time(1), func() {
				cl.ReadOp(f, 0, 4<<20, nil, func(error) {})
			})
		})
		eng.Run()
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if run() != run() {
		t.Fatal("same-seed erasure-coded faulted runs diverged")
	}
}

func BenchmarkRebuildStorm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		fs := New(eng, ecConfig(32, 8, 2))
		fs.InjectFaults(sim.NewFaultPlan().Add(OSSTarget(0), 0, 0))
		eng.Run()
		if fs.RebuildStats().Completed != 1 {
			b.Fatal("rebuild did not complete")
		}
	}
}

func BenchmarkRebuildGroupMap(b *testing.B) {
	cfg := ecConfig(10240, 8, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		red := newRedState(cfg)
		if len(red.groups) == 0 {
			b.Fatal("no groups")
		}
	}
}
