package bb

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/flash"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// rig is one engine + striped FS + buffer tier with one file per rank,
// pre-created so tests schedule pure data traffic. Its registry is the
// caller's, or a fresh one when the caller passes nil.
type rig struct {
	eng   *sim.Engine
	reg   *obs.Registry
	fs    *pfs.FS
	tier  *Tier
	files []*pfs.File
}

func newRig(t *testing.T, cfg Config, ranks int, reg *obs.Registry) *rig {
	t.Helper()
	return newRigOn(t, pfs.PanFSLike(4), cfg, ranks, reg)
}

// newRigOn is newRig on a file system built from fsCfg.
func newRigOn(t *testing.T, fsCfg pfs.Config, cfg Config, ranks int, reg *obs.Registry) *rig {
	t.Helper()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	eng := sim.NewEngine()
	eng.Instrument(reg, nil)
	fs := pfs.New(eng, fsCfg)
	r := &rig{eng: eng, reg: reg, fs: fs, tier: NewTier(fs, cfg), files: make([]*pfs.File, ranks)}
	for i := 0; i < ranks; i++ {
		i := i
		fs.NewClient(i).Create(fileName(i), func(f *pfs.File) { r.files[i] = f })
	}
	eng.Run()
	return r
}

// fsBytesWritten sums the file system's per-OSS bytes_written counters.
func (r *rig) fsBytesWritten() int64 {
	var n int64
	for name, v := range r.reg.Snapshot().Counters {
		if strings.HasPrefix(name, "pfs.oss") && strings.HasSuffix(name, ".bytes_written") {
			n += v
		}
	}
	return n
}

func fileName(rank int) string {
	return "ckpt/rank" + string(rune('0'+rank))
}

// writeRound issues one size-byte write per rank at the engine's current
// time and calls done(elapsed) when every ack has arrived.
func (r *rig) writeRound(t *testing.T, size int64, wantErr bool, done func(elapsed sim.Time)) {
	t.Helper()
	start := r.eng.Now()
	left := len(r.files)
	for i, f := range r.files {
		r.tier.WriteOp(i, f, 0, size, nil, func(err error) {
			if !wantErr && err != nil {
				t.Errorf("rank write failed: %v", err)
			}
			if left--; left == 0 {
				done(r.eng.Now() - start)
			}
		})
	}
}

// directRoundTime measures the same round written straight to a fresh
// FS, for the latency-hiding comparison.
func directRoundTime(t *testing.T, ranks int, size int64) sim.Time {
	t.Helper()
	eng := sim.NewEngine()
	fs := pfs.New(eng, pfs.PanFSLike(4))
	files := make([]*pfs.File, ranks)
	clients := make([]*pfs.Client, ranks)
	for i := 0; i < ranks; i++ {
		i := i
		clients[i] = fs.NewClient(i)
		clients[i].Create(fileName(i), func(f *pfs.File) { files[i] = f })
	}
	eng.Run()
	var elapsed sim.Time
	start := eng.Now()
	left := ranks
	for i := range files {
		clients[i].WriteOp(files[i], 0, size, nil, func(err error) {
			if err != nil {
				t.Errorf("direct write failed: %v", err)
			}
			if left--; left == 0 {
				elapsed = eng.Now() - start
			}
		})
	}
	eng.Run()
	return elapsed
}

func testConfig() Config {
	return Config{
		Nodes:          1,
		Mode:           WriteBack,
		Flash:          flash.FusionIODuo(),
		DrainBandwidth: 100e6,
	}
}

// TestWriteBackHidesCheckpointLatency is the tier's reason to exist:
// the buffered ack must land well before the direct FS write would,
// and the drain must still deliver every byte to the FS afterwards.
func TestWriteBackHidesCheckpointLatency(t *testing.T) {
	const ranks, size = 4, int64(1 << 20)
	direct := directRoundTime(t, ranks, size)

	cfg := testConfig()
	cfg.Nodes = 2 // two ranks per node, the usual fan-in
	r := newRig(t, cfg, ranks, nil)
	var buffered sim.Time
	r.writeRound(t, size, false, func(elapsed sim.Time) { buffered = elapsed })
	r.eng.Run()

	if buffered <= 0 || direct <= 0 {
		t.Fatalf("rounds did not complete: buffered=%v direct=%v", buffered, direct)
	}
	if buffered >= direct/2 {
		t.Fatalf("write-back ack %v not measurably below direct %v", buffered, direct)
	}
	st := r.tier.Stats()
	if st.AbsorbedBytes != int64(ranks)*size {
		t.Fatalf("absorbed %d bytes, want %d", st.AbsorbedBytes, int64(ranks)*size)
	}
	if st.DrainedBytes != st.AbsorbedBytes {
		t.Fatalf("drained %d of %d absorbed bytes", st.DrainedBytes, st.AbsorbedBytes)
	}
	if r.tier.backlogBytes != 0 || r.tier.Occupancy() != 0 {
		t.Fatalf("tier not empty after drain: backlog=%d occ=%v", r.tier.backlogBytes, r.tier.Occupancy())
	}
	if got := r.fsBytesWritten(); got != st.AbsorbedBytes {
		t.Fatalf("fs received %d bytes, want %d", got, st.AbsorbedBytes)
	}
}

// TestWriteThroughForwardsSynchronously: the ack waits for the FS copy,
// so nothing is ever dirty and no drain runs.
func TestWriteThroughForwardsSynchronously(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = WriteThrough
	const ranks, size = 2, int64(1 << 20)
	r := newRig(t, cfg, ranks, nil)
	var buffered sim.Time
	r.writeRound(t, size, false, func(elapsed sim.Time) { buffered = elapsed })
	r.eng.Run()
	st := r.tier.Stats()
	if st.ForwardedBytes != int64(ranks)*size {
		t.Fatalf("forwarded %d bytes, want %d", st.ForwardedBytes, int64(ranks)*size)
	}
	if st.DrainedOps != 0 || r.tier.backlogBytes != 0 {
		t.Fatalf("write-through ran the drain: %+v", st)
	}
	if got := r.fsBytesWritten(); got != st.ForwardedBytes {
		t.Fatalf("fs received %d bytes, want %d", got, st.ForwardedBytes)
	}
	direct := directRoundTime(t, ranks, size)
	if buffered < direct {
		t.Fatalf("write-through ack %v beat the direct path %v — it must wait for the FS", buffered, direct)
	}
}

// TestDrainRacesCheckpointRound: with a compute gap longer than the
// drain debt the next round finds an empty buffer; with a slow drain
// and a small device the rounds pile up until backpressure stalls the
// writers — the saturation knee of the sizing experiment.
func TestDrainRacesCheckpointRound(t *testing.T) {
	const ranks, size = 2, int64(256 << 10)

	// Fast drain, roomy buffer: round 2 must start clean and stall-free.
	r := newRig(t, testConfig(), ranks, nil)
	rounds := 0
	var nextRound func()
	nextRound = func() {
		r.writeRound(t, size, false, func(sim.Time) {
			rounds++
			if rounds == 2 {
				return
			}
			// A generous compute phase: drain debt is ~5 ms at 100 MB/s.
			r.eng.Schedule(sim.Time(0.5), func() {
				if got := r.tier.backlogBytes; got != 0 {
					t.Errorf("drain lost the race it should win: backlog %d at next round", got)
				}
				nextRound()
			})
		})
	}
	nextRound()
	r.eng.Run()
	if st := r.tier.Stats(); st.Stalls != 0 {
		t.Fatalf("roomy buffer stalled %d writes", st.Stalls)
	}

	// Slow drain, small buffer (512 KiB = exactly one round): the
	// back-to-back burst must hit backpressure.
	cfg := testConfig()
	cfg.Flash.UserPages = 128
	cfg.DrainBandwidth = 2e6
	r2 := newRig(t, cfg, ranks, nil)
	burst := 0
	var burstRound func()
	burstRound = func() {
		r2.writeRound(t, size, false, func(sim.Time) {
			if burst++; burst < 4 {
				burstRound()
			}
		})
	}
	burstRound()
	r2.eng.Run()
	st := r2.tier.Stats()
	if st.Stalls == 0 || st.StallTime <= 0 {
		t.Fatalf("saturating burst never stalled: %+v", st)
	}
	if st.PeakOccupancy < 0.9 {
		t.Fatalf("peak occupancy %v, want ~1 under saturation", st.PeakOccupancy)
	}
	if st.DrainedBytes != st.AbsorbedBytes {
		t.Fatalf("drained %d of %d absorbed bytes", st.DrainedBytes, st.AbsorbedBytes)
	}
}

// TestWriteBackCrashLosesDirtyData: acknowledged but undrained bytes
// die with the node — the durability gap write-back trades for speed.
func TestWriteBackCrashLosesDirtyData(t *testing.T) {
	cfg := testConfig()
	cfg.DrainBandwidth = 1e6 // ~0.26 s per 256 KiB record: plenty dirty at crash
	const ranks, size = 4, int64(256 << 10)
	r := newRig(t, cfg, ranks, nil)
	plan := sim.NewFaultPlan().Add(NodeTarget(0), r.eng.Now()+0.05, 0)
	if err := plan.Schedule(r.eng, r.tier); err != nil {
		t.Fatal(err)
	}
	acked := 0
	r.writeRound(t, size, false, func(sim.Time) { acked = 1 })
	r.eng.Run()
	st := r.tier.Stats()
	if acked != 1 {
		t.Fatal("round never fully acked before the crash")
	}
	if st.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", st.Crashes)
	}
	if st.LostBytes == 0 {
		t.Fatalf("crash lost no dirty data: %+v", st)
	}
	if st.LostBytes+st.DrainedBytes+st.DroppedDrainBytes != st.AbsorbedBytes {
		t.Fatalf("byte accounting leaks: lost %d + drained %d + dropped %d != absorbed %d",
			st.LostBytes, st.DrainedBytes, st.DroppedDrainBytes, st.AbsorbedBytes)
	}
	if got := r.fsBytesWritten(); got >= st.AbsorbedBytes {
		t.Fatalf("fs received %d bytes despite %d lost", got, st.LostBytes)
	}
	if r.tier.Occupancy() != 0 {
		t.Fatalf("occupancy %v after crash cleared the buffer", r.tier.Occupancy())
	}
}

// TestWriteThroughCrashLosesNothing: the same crash under write-through
// has no dirty data to destroy; every acknowledged byte is in the FS.
func TestWriteThroughCrashLosesNothing(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = WriteThrough
	fsCfg := pfs.PanFSLike(4)
	fsCfg.FailTimeout = sim.Time(5e-3)
	const ranks, size = 4, int64(256 << 10)
	r := newRigOn(t, fsCfg, cfg, ranks, nil)
	// Crash mid-ingest: the serialized node link moves one 256 KiB write
	// every ~0.21 ms, so at +0.5 ms the later ranks are still queued.
	plan := sim.NewFaultPlan().Add(NodeTarget(0), r.eng.Now()+0.0005, 0)
	if err := plan.Schedule(r.eng, r.tier); err != nil {
		t.Fatal(err)
	}
	var okBytes int64
	left := ranks
	for i, f := range r.files {
		i := i
		r.tier.WriteOp(i, f, 0, size, nil, func(err error) {
			if err == nil {
				okBytes += size
			} else if !errors.Is(err, ErrNodeDown) {
				t.Errorf("unexpected error: %v", err)
			}
			left--
		})
	}
	r.eng.Run()
	st := r.tier.Stats()
	if left != 0 {
		t.Fatalf("%d writes never completed", left)
	}
	if st.LostBytes != 0 {
		t.Fatalf("write-through lost %d bytes", st.LostBytes)
	}
	if got := r.fsBytesWritten(); got < okBytes {
		t.Fatalf("fs received %d bytes < %d acknowledged", got, okBytes)
	}
	if st.FailedOps == 0 {
		t.Fatalf("mid-ingest crash failed no in-flight writes: %+v", st)
	}
}

// TestTornDrainMarksCorruption: a node crash while its drain is on the
// FS wire leaves a partially-streamed extent; the tier must mark it
// corrupt so pfs checksums catch the lie on read.
func TestTornDrainMarksCorruption(t *testing.T) {
	cfg := testConfig()
	cfg.DrainBandwidth = 2e6 // 1 MiB record: ~0.52 s readback+pace, then the FS write
	const size = int64(1 << 20)
	r := newRig(t, cfg, 1, nil)
	// The drainq service for the single record ends at ~0.527 s; the FS
	// write then needs ~10 ms of wire time. Crash inside that window.
	plan := sim.NewFaultPlan().Add(NodeTarget(0), r.eng.Now()+0.53, 0)
	if err := plan.Schedule(r.eng, r.tier); err != nil {
		t.Fatal(err)
	}
	r.writeRound(t, size, false, func(sim.Time) {})
	r.eng.Run()
	st := r.tier.Stats()
	if st.TornDrains == 0 {
		t.Fatalf("crash mid-drain tore nothing: %+v", st)
	}
	if st.AbsorbedBytes != st.DrainedBytes+st.LostBytes+st.DroppedDrainBytes+st.TornBytes {
		t.Fatalf("byte identity violated after a torn drain: absorbed %d != drained %d + lost %d + dropped %d + torn %d",
			st.AbsorbedBytes, st.DrainedBytes, st.LostBytes, st.DroppedDrainBytes, st.TornBytes)
	}
	ints := r.fs.IntegrityStats()
	if ints.Injected == 0 {
		t.Fatalf("torn drain injected no corruption: %+v", ints)
	}
	if got := r.fs.UnrepairedCorruption(); got == 0 {
		t.Fatal("torn extent not live as latent corruption")
	}
	if r.tier.Occupancy() != 0 || r.tier.backlogBytes != 0 {
		t.Fatalf("torn drain leaked occupancy: occ=%v backlog=%d", r.tier.Occupancy(), r.tier.backlogBytes)
	}
}

// TestRecoveredNodeDrainsWhileTornDrainInFlight: a node that crashes
// and recovers while its torn drain's FS write is still on the wire
// starts a second drain on the same node. Each drain must judge its own
// write by the epoch it left under, so the torn write is counted torn
// and the new record counted drained, neither mistaken for the other.
func TestRecoveredNodeDrainsWhileTornDrainInFlight(t *testing.T) {
	cfg := testConfig()
	cfg.DrainBandwidth = 2e6
	const size = int64(1 << 20)
	r := newRig(t, cfg, 1, nil)
	start := r.eng.Now()
	// The first record's FS write leaves at ~0.527 s and needs ~10 ms of
	// wire time: the node is down from 0.53 s to 0.531 s, and the second
	// record arrives after it is back.
	plan := sim.NewFaultPlan().Add(NodeTarget(0), start+0.53, 0.001)
	if err := plan.Schedule(r.eng, r.tier); err != nil {
		t.Fatal(err)
	}
	r.writeRound(t, size, false, func(sim.Time) {})
	r.eng.At(start+0.532, func() {
		r.tier.WriteOp(0, r.files[0], size, size, nil, func(err error) {
			if err != nil {
				t.Errorf("write after recovery failed: %v", err)
			}
		})
	})
	r.eng.Run()
	st := r.tier.Stats()
	if st.Crashes != 1 || st.Recoveries != 1 {
		t.Fatalf("plan not applied: %+v", st)
	}
	if st.TornDrains != 1 || st.TornBytes != size {
		t.Fatalf("torn drains %d (%d bytes), want 1 of %d bytes: %+v", st.TornDrains, st.TornBytes, size, st)
	}
	if st.DrainedOps != 1 || st.DrainedBytes != size {
		t.Fatalf("clean drains %d (%d bytes), want 1 of %d bytes: %+v", st.DrainedOps, st.DrainedBytes, size, st)
	}
	if st.AbsorbedBytes != st.DrainedBytes+st.LostBytes+st.DroppedDrainBytes+st.TornBytes {
		t.Fatalf("byte identity violated: absorbed %d != drained %d + lost %d + dropped %d + torn %d",
			st.AbsorbedBytes, st.DrainedBytes, st.LostBytes, st.DroppedDrainBytes, st.TornBytes)
	}
	if r.tier.Occupancy() != 0 || r.tier.backlogBytes != 0 {
		t.Fatalf("tier not empty at the end: occ=%v backlog=%d", r.tier.Occupancy(), r.tier.backlogBytes)
	}
}

// TestOversizedWriteBypasses: a write larger than the whole node buffer
// goes straight to the FS, counted as passthrough, never logged.
func TestOversizedWriteBypasses(t *testing.T) {
	cfg := testConfig()
	cfg.Flash.UserPages = 16 // 64 KiB node buffer
	r := newRig(t, cfg, 1, nil)
	size := int64(1 << 20)
	doneAt := sim.Time(-1)
	r.tier.WriteOp(0, r.files[0], 0, size, nil, func(err error) {
		if err != nil {
			t.Errorf("passthrough write failed: %v", err)
		}
		doneAt = r.eng.Now()
	})
	r.eng.Run()
	st := r.tier.Stats()
	if doneAt < 0 {
		t.Fatal("passthrough write never completed")
	}
	if st.PassthroughBytes != size || st.AbsorbedBytes != 0 {
		t.Fatalf("passthrough accounting wrong: %+v", st)
	}
	if got := r.fsBytesWritten(); got != size {
		t.Fatalf("fs received %d bytes, want %d", got, size)
	}
}

// TestForeignAndBogusTargetsIgnored: the tier must coexist with OSS
// targets on one plan and shrug off out-of-range node names.
func TestForeignAndBogusTargetsIgnored(t *testing.T) {
	r := newRig(t, testConfig(), 1, nil)
	r.tier.CrashTarget("oss0")
	r.tier.CrashTarget("bb99")
	r.tier.CrashTarget("mds")
	// Aliases of a real node: only the exact NodeTarget spelling names one.
	r.tier.CrashTarget("bb00")
	r.tier.CrashTarget("bb+0")
	r.tier.CrashTarget("bb0junk")
	r.tier.RecoverTarget("bb99")
	if st := r.tier.Stats(); st.Crashes != 0 || st.Recoveries != 0 {
		t.Fatalf("foreign targets counted: %+v", st)
	}
}

// TestConfigValidate covers the rejection paths.
func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},
		{Nodes: 1, Mode: Mode(7), Flash: flash.FusionIODuo()},
		{Nodes: 1, Flash: flash.Spec{}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d validated: %+v", i, c)
		}
	}
	if err := testConfig().Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

// TestSameSeedTierRunsAreByteIdentical pins the tier's own determinism:
// two identically-configured instrumented runs serialize the same
// snapshot, including under faults and backpressure.
func TestSameSeedTierRunsAreByteIdentical(t *testing.T) {
	run := func() []byte {
		cfg := testConfig()
		cfg.Flash.UserPages = 64
		cfg.DrainBandwidth = 5e6
		reg := obs.NewRegistry()
		r := newRig(t, cfg, 4, reg)
		plan := sim.NewFaultPlan().Add(NodeTarget(0), r.eng.Now()+0.05, 0.1)
		if err := plan.Schedule(r.eng, r.tier); err != nil {
			t.Fatal(err)
		}
		rounds := 0
		var next func()
		next = func() {
			r.writeRound(t, 256<<10, true, func(sim.Time) {
				if rounds++; rounds < 3 {
					r.eng.Schedule(sim.Time(0.02), next)
				}
			})
		}
		next()
		r.eng.Run()
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed tier snapshots differ:\n%s\nvs\n%s", a, b)
	}
}

// TestProgramMatchesPageWrites: a write programs its pages as one run,
// split where it passes the end of the log with its latency carried
// over, so its service time is the per-page sum a twin device gives,
// over the same channels. With 100 log pages and 64-page writes every
// other write wraps, and the small device collects blocks as it goes.
func TestProgramMatchesPageWrites(t *testing.T) {
	cfg := testConfig()
	cfg.Flash.UserPages = 100
	r := newRig(t, cfg, 1, nil)
	n := r.tier.nodes[0]
	twin := flash.NewDevice(cfg.Flash)
	cursor := 0
	for w := 0; w < 40; w++ {
		var lat sim.Time
		for i := 0; i < 64; i++ {
			lat += twin.WritePage(cursor)
			cursor = (cursor + 1) % cfg.Flash.UserPages
		}
		want := sim.Time(float64(lat) / float64(twin.Spec.Channels))
		if got := r.tier.program(n, 64); got != want {
			t.Fatalf("write %d: service time %v s, want %v s from one WritePage per page", w, float64(got), float64(want))
		}
	}
	if n.cursor != cursor {
		t.Fatalf("log cursor at %d, want %d", n.cursor, cursor)
	}
	if *n.dev.Counts != *twin.Counts {
		t.Fatalf("device counts %+v, want %+v", *n.dev.Counts, *twin.Counts)
	}
	if twin.Erases == 0 {
		t.Fatal("no block was collected: the log never wrapped onto itself")
	}
	if err := n.dev.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
