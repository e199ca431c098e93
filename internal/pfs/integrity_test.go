package pfs

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/disk"
	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/sim"
)

// intConfig is testConfig with read-path checksum verification on. It
// is unprotected: a mismatch has no group to be repaired from.
func intConfig(servers int) Config {
	c := testConfig(servers)
	c.Checksums = true
	return c
}

// ecIntConfig is a 2+1 erasure-coded deployment with read-path checksums
// on: the smallest group that can repair a unit, plus a rebuild spare.
func ecIntConfig() Config {
	c := ecConfig(4, 2, 1)
	c.Checksums = true
	return c
}

// unitCorruption is a corruption schedule with one event over the first
// 512 bytes of f's stripe unit, on whichever server placement put it.
func unitCorruption(fs *FS, f *File, unit int64, at sim.Time) [][]disk.CorruptionEvent {
	s, _ := fs.dataServer(f.st, unit)
	events := make([][]disk.CorruptionEvent, len(fs.servers))
	events[s.idx] = []disk.CorruptionEvent{{
		Offset: extentOf(s, f.st.id, unit),
		Length: 512,
		At:     at,
		Mode:   disk.MediaError,
	}}
	return events
}

// extentOf is the disk offset of a file unit's extent on s.
func extentOf(s *server, file int, unit int64) int64 {
	off, _ := s.fileExtent(file, unit)
	return off
}

// extentCount counts the extents allocated on s: file units plus
// group-unit regions.
func extentCount(s *server) int {
	n := len(s.ec)
	s.eachFileExtent(func(int, int64) { n++ })
	return n
}

// writeUnits creates /f and writes n full stripe units synchronously,
// returning the handle. On an unprotected file system unit u of file 0
// lands on server u%servers, and the first one there at disk offset 0.
func writeUnits(t *testing.T, eng *sim.Engine, fs *FS, n int) *File {
	t.Helper()
	cl := fs.NewClient(0)
	var f *File
	cl.Create("/f", func(h *File) {
		f = h
		cl.WriteOp(h, 0, int64(n)*fs.Cfg.StripeUnit, nil, nil)
	})
	eng.Run()
	if f == nil || f.st.size != int64(n)*fs.Cfg.StripeUnit {
		t.Fatalf("setup write failed: %+v", f)
	}
	return f
}

// TestEveryDiskAccessIsCounted: scrub reads and repair rewrites reach
// the disk model, so they bump pfs.ossNN.ops, bytes_read and
// bytes_written like every other disk access. With no read-modify-write
// in the run, each server's ops equal its disk's accesses, and its byte
// counters equal the bytes the disk transferred.
func TestEveryDiskAccessIsCounted(t *testing.T) {
	eng := sim.NewEngine()
	eng.Instrument(obs.NewRegistry(), nil)
	fs := New(eng, ecIntConfig())
	f := writeUnits(t, eng, fs, 8)
	if err := fs.InjectCorruption(unitCorruption(fs, f, 0, eng.Now())); err != nil {
		t.Fatal(err)
	}
	var rep ScrubReport
	fs.Scrub(func(r ScrubReport) { rep = r })
	eng.Run()
	if rep.Units == 0 || rep.Repaired != 1 {
		t.Fatalf("scrub pass %+v, want every unit swept and one repair", rep)
	}
	for i, s := range fs.servers {
		st := s.dsk.Stats()
		if ops := s.tally.ops; ops != st.Accesses {
			t.Errorf("oss%02d: %d ops counted for %d disk accesses", i, ops, st.Accesses)
		}
		counted := float64(s.tally.bytesR + s.tally.bytesW)
		if moved := st.TransferSec * s.dsk.Geom.SeqBandwidth; math.Abs(counted-moved) > 1 {
			t.Errorf("oss%02d: %.0f bytes counted for %.0f bytes transferred", i, counted, moved)
		}
	}
}

func TestChecksumReadDetectsAndRepairs(t *testing.T) {
	eng := sim.NewEngine()
	fs := New(eng, ecIntConfig())
	f := writeUnits(t, eng, fs, 1)
	if err := fs.InjectCorruption(unitCorruption(fs, f, 0, 1)); err != nil {
		t.Fatal(err)
	}
	cl := fs.NewClient(1)
	gotErr := errors.New("read never completed")
	eng.At(2, func() {
		cl.ReadOp(f, 0, fs.Cfg.StripeUnit, nil, func(err error) { gotErr = err })
	})
	eng.Run()
	if gotErr != nil {
		t.Fatalf("repaired read errored: %v", gotErr)
	}
	st := fs.IntegrityStats()
	if st.Detected != 1 || st.Repaired != 1 || st.SilentReads != 0 || st.Unrecoverable != 0 {
		t.Fatalf("stats = %+v, want one detected+repaired", st)
	}
	if fs.UnrepairedCorruption() != 0 {
		t.Fatal("corruption survived the repair")
	}
	// The repaired unit reads clean from now on.
	eng.At(eng.Now()+1, func() {
		cl.ReadOp(f, 0, fs.Cfg.StripeUnit, nil, func(err error) { gotErr = err })
	})
	eng.Run()
	if gotErr != nil || fs.IntegrityStats().Detected != 1 {
		t.Fatalf("re-read after repair: err=%v stats=%+v", gotErr, fs.IntegrityStats())
	}
}

func TestChecksumsOffReadsCorruptBytesSilently(t *testing.T) {
	eng := sim.NewEngine()
	cfg := intConfig(2)
	cfg.Checksums = false
	fs := New(eng, cfg)
	f := writeUnits(t, eng, fs, 1)
	if err := fs.InjectCorruption([][]disk.CorruptionEvent{
		{{Offset: 0, Length: 512, At: 1, Mode: disk.TornWrite}},
	}); err != nil {
		t.Fatal(err)
	}
	cl := fs.NewClient(1)
	gotErr := errors.New("read never completed")
	eng.At(2, func() {
		cl.ReadOp(f, 0, fs.Cfg.StripeUnit, nil, func(err error) { gotErr = err })
	})
	eng.Run()
	if gotErr != nil {
		t.Fatalf("silent read errored: %v", gotErr)
	}
	st := fs.IntegrityStats()
	if st.SilentReads != 1 || st.Detected != 0 || st.Repaired != 0 {
		t.Fatalf("stats = %+v, want one silent read", st)
	}
	if fs.UnrepairedCorruption() != 1 {
		t.Fatal("silent read repaired the corruption")
	}
}

func TestChecksumMismatchWithNoSurvivorIsUnrecoverable(t *testing.T) {
	eng := sim.NewEngine()
	fs := New(eng, ecIntConfig())
	f := writeUnits(t, eng, fs, 1)
	if err := fs.InjectCorruption(unitCorruption(fs, f, 0, 1)); err != nil {
		t.Fatal(err)
	}
	// Both other members of the unit's group are permanently down before
	// the read, so nothing is left to reconstruct from.
	home, gid := fs.dataServer(f.st, 0)
	plan := sim.NewFaultPlan()
	for _, m := range fs.red.groups[gid].members {
		if int(m) != home.idx {
			plan.Add(OSSTarget(int(m)), sim.Time(1.5), 0)
		}
	}
	if err := fs.InjectFaults(plan); err != nil {
		t.Fatal(err)
	}
	cl := fs.NewClient(1)
	gotErr := errors.New("read never completed")
	eng.At(2, func() {
		cl.ReadOp(f, 0, fs.Cfg.StripeUnit, nil, func(err error) { gotErr = err })
	})
	eng.Run()
	if !errors.Is(gotErr, ErrCorruptData) {
		t.Fatalf("err = %v, want ErrCorruptData", gotErr)
	}
	st := fs.IntegrityStats()
	if st.Detected != 1 || st.Unrecoverable != 1 || st.Repaired != 0 {
		t.Fatalf("stats = %+v, want one unrecoverable", st)
	}
}

func TestUnprotectedCorruptionIsUnrecoverable(t *testing.T) {
	// Checksums catch the rot, but with no redundancy group there is
	// nothing to rebuild the unit from, even with every server healthy.
	eng := sim.NewEngine()
	fs := New(eng, intConfig(2))
	f := writeUnits(t, eng, fs, 1)
	if err := fs.InjectCorruption(unitCorruption(fs, f, 0, 1)); err != nil {
		t.Fatal(err)
	}
	cl := fs.NewClient(1)
	gotErr := errors.New("read never completed")
	eng.At(2, func() {
		cl.ReadOp(f, 0, fs.Cfg.StripeUnit, nil, func(err error) { gotErr = err })
	})
	eng.Run()
	if !errors.Is(gotErr, ErrCorruptData) {
		t.Fatalf("err = %v, want ErrCorruptData", gotErr)
	}
	st := fs.IntegrityStats()
	if st.Detected != 1 || st.Unrecoverable != 1 || st.Repaired != 0 {
		t.Fatalf("stats = %+v, want one unrecoverable", st)
	}
	if fs.UnrepairedCorruption() != 1 {
		t.Fatal("an unrecoverable unit was marked repaired")
	}
}

func TestOverwriteClearsLatentCorruption(t *testing.T) {
	eng := sim.NewEngine()
	fs := New(eng, intConfig(2))
	f := writeUnits(t, eng, fs, 1)
	if err := fs.InjectCorruption([][]disk.CorruptionEvent{
		{{Offset: 0, Length: 512, At: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	cl := fs.NewClient(0)
	eng.At(2, func() { cl.WriteOp(f, 0, fs.Cfg.StripeUnit, nil, nil) })
	eng.Run()
	if fs.UnrepairedCorruption() != 0 {
		t.Fatal("full overwrite left the corruption live")
	}
	if st := fs.IntegrityStats(); st.Detected != 0 {
		t.Fatalf("overwrite path counted a detection: %+v", st)
	}
}

func TestInjectCorruptionRejectsTooManySchedules(t *testing.T) {
	eng := sim.NewEngine()
	fs := New(eng, intConfig(2))
	err := fs.InjectCorruption(make([][]disk.CorruptionEvent, 3))
	if err == nil {
		t.Fatal("3 schedules for 2 servers accepted")
	}
}

// TestScrubRepairRestoresCleanContents is the property test: for several
// random corruption patterns, one scrub pass after all events arrive
// leaves every stored stripe unit byte-identical to its written contents
// (no live corruption anywhere), and subsequent reads verify clean.
func TestScrubRepairRestoresCleanContents(t *testing.T) {
	const units = 8
	for seed := int64(1); seed <= 5; seed++ {
		eng := sim.NewEngine()
		fs := New(eng, ecIntConfig())
		f := writeUnits(t, eng, fs, units)
		// Random events confined to allocated disk space: each server's
		// extents (data units and group-unit regions) tile [0, next).
		r := rand.New(rand.NewSource(seed))
		events := make([][]disk.CorruptionEvent, len(fs.servers))
		extents := 0
		total := 0
		for s := range events {
			extents += extentCount(fs.servers[s])
			allocated := fs.servers[s].next
			if allocated == 0 {
				continue
			}
			for k := 0; k < 1+r.Intn(4); k++ {
				off := (r.Int63n(allocated / 512)) * 512
				length := int64(512 * (1 + r.Intn(4)))
				if off+length > allocated {
					length = allocated - off
				}
				events[s] = append(events[s], disk.CorruptionEvent{
					Offset: off, Length: length, At: sim.Time(1 + r.Float64()*5),
				})
				total++
			}
		}
		if err := fs.InjectCorruption(events); err != nil {
			t.Fatal(err)
		}
		var rep ScrubReport
		eng.At(10, func() { fs.Scrub(func(r ScrubReport) { rep = r }) })
		eng.Run()
		if fs.UnrepairedCorruption() != 0 {
			t.Fatalf("seed %d: %d events survived the scrub", seed, fs.UnrepairedCorruption())
		}
		if rep.Units != int64(extents) || rep.Unrecoverable != 0 {
			t.Fatalf("seed %d: report = %+v, want %d extents all repairable", seed, rep, extents)
		}
		if rep.Detected == 0 || rep.Detected != rep.Repaired {
			t.Fatalf("seed %d: report = %+v, want detected==repaired>0", seed, rep)
		}
		// Every unit now reads back verified-clean.
		cl := fs.NewClient(1)
		var readErr error
		eng.At(eng.Now()+1, func() {
			cl.ReadOp(f, 0, int64(units)*fs.Cfg.StripeUnit, nil, func(err error) { readErr = err })
		})
		before := fs.IntegrityStats()
		eng.Run()
		after := fs.IntegrityStats()
		if readErr != nil {
			t.Fatalf("seed %d: post-scrub read errored: %v", seed, readErr)
		}
		if after.Detected != before.Detected || after.SilentReads != 0 {
			t.Fatalf("seed %d: post-scrub read saw corruption: %+v", seed, after)
		}
	}
}

// TestNoCorruptionReachesReadsUnflagged is the acceptance cross-check:
// under a drawn LSE schedule with checksums on, every read either
// returns verified (possibly repaired) data or a typed error — and the
// pfs.integrity.* counters account for every injected event that a read
// or scrub encountered.
func TestNoCorruptionReachesReadsUnflagged(t *testing.T) {
	// 32 units are enough for file 0's stripe-unit pairs to reach every
	// group, so every drive holds extents the draw can land in.
	const units = 32
	eng := sim.NewEngine()
	reg := obs.NewRegistry()
	eng.Instrument(reg, nil)
	fs := New(eng, ecIntConfig())
	f := writeUnits(t, eng, fs, units)
	capacity := fs.servers[0].next
	for _, s := range fs.servers {
		if s.next < capacity {
			capacity = s.next
		}
	}
	if capacity == 0 {
		t.Fatal("a server holds no extents; the draw would land outside any unit")
	}
	spec := failure.LSESpec{
		Disks:         len(fs.servers),
		CapacityBytes: capacity,
		MTBC:          2,
		Shape:         1.0,
		TornFraction:  0.25,
		Horizon:       10,
	}
	events := failure.DrawLSE(spec, 99)
	injected := 0
	for _, evs := range events {
		injected += len(evs)
	}
	if injected == 0 {
		t.Fatal("draw produced no corruption")
	}
	if err := fs.InjectCorruption(events); err != nil {
		t.Fatal(err)
	}
	// Read the whole file repeatedly across the horizon, then scrub, then
	// read once more after every event has arrived.
	cl := fs.NewClient(1)
	reads, flagged := 0, 0
	readAll := func() {
		cl.ReadOp(f, 0, f.st.size, nil, func(err error) {
			reads++
			if err != nil {
				if !errors.Is(err, ErrCorruptData) {
					t.Errorf("read errored with %v, want nil or ErrCorruptData", err)
				}
				flagged++
			}
		})
	}
	for _, at := range []sim.Time{3, 6, 9} {
		eng.At(at, readAll)
	}
	eng.At(11, func() { fs.Scrub(nil) })
	eng.At(15, readAll)
	eng.Run()

	if reads != 4 {
		t.Fatalf("completed %d reads, want 4", reads)
	}
	st := fs.IntegrityStats()
	if st.Injected != int64(injected) {
		t.Fatalf("Injected = %d, want %d", st.Injected, injected)
	}
	// With checksums on, nothing is silent; every detection was either
	// repaired or surfaced as a typed error.
	if st.SilentReads != 0 {
		t.Fatalf("%d corrupt reads went unflagged", st.SilentReads)
	}
	if st.Detected == 0 || st.Detected != st.Repaired+st.Unrecoverable {
		t.Fatalf("stats = %+v, want detected == repaired+unrecoverable > 0", st)
	}
	if st.Unrecoverable > 0 && flagged == 0 {
		t.Fatal("unrecoverable detections but no read was flagged")
	}
	// All healthy servers: nothing should actually be unrecoverable, so
	// after the final repairs every arrived event is gone.
	if st.Unrecoverable != 0 {
		t.Fatalf("unrecoverable = %d with all servers healthy", st.Unrecoverable)
	}
	if fs.UnrepairedCorruption() != 0 {
		t.Fatalf("%d events never repaired", fs.UnrepairedCorruption())
	}
	// The registry mirrors the struct counters exactly.
	s := reg.Snapshot()
	for name, want := range map[string]int64{
		"pfs.integrity.injected":       st.Injected,
		"pfs.integrity.detected":       st.Detected,
		"pfs.integrity.repaired":       st.Repaired,
		"pfs.integrity.unrecoverable":  st.Unrecoverable,
		"pfs.integrity.silent_reads":   st.SilentReads,
		"pfs.integrity.scrubbed_units": st.ScrubbedUnits,
	} {
		if got := s.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestIntegrityRunDeterministicPerSeed(t *testing.T) {
	run := func() *bytes.Buffer {
		spec := failure.LSESpec{
			Disks:         2,
			CapacityBytes: 4 * PanFSLike(2).StripeUnit,
			MTBC:          1,
			Shape:         0.8,
			TornFraction:  0.5,
			Horizon:       8,
		}
		eng := sim.NewEngine()
		reg := obs.NewRegistry()
		eng.Instrument(reg, nil)
		fs := New(eng, intConfig(2))
		f := writeUnits(t, eng, fs, 8)
		if err := fs.InjectCorruption(failure.DrawLSE(spec, 7)); err != nil {
			t.Fatal(err)
		}
		cl := fs.NewClient(1)
		eng.At(4, func() { fs.Scrub(nil) })
		eng.At(9, func() { cl.ReadOp(f, 0, f.st.size, nil, func(error) {}) })
		eng.Run()
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	a, b := run(), run()
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same-seed integrity runs diverged")
	}
}
