package pfs

import (
	"errors"
	"fmt"

	"repro/internal/disk"
	"repro/internal/sim"
)

// This file is the silent-failure half of the failure model: where
// faults.go handles servers that die loudly, this handles drives that lie
// quietly. An armed corruption schedule (disk.Corruptor per server, drawn
// by failure.DrawLSE) marks extents rotten over sim-time; what happens
// next depends on who looks. With Config.Checksums on, every read
// verifies its stripe unit's crc32c and a mismatch triggers the repair
// path: reconstruct the unit from k live members of its redundancy group,
// rewrite it in place, and deliver the repaired data — the application
// never sees the corruption. A unit with no group (an unprotected file
// system) or too few live members cannot be repaired, and the read fails
// with ErrCorruptData. With checksums off the corrupt bytes flow silently
// into the read, and only the pfs.integrity.silent_reads counter knows.
// A background Scrub pass sweeps every stored extent (always verifying —
// a scrub is an explicit integrity pass, independent of the read path's
// Checksums flag), repairing what it finds, so the window in which a
// latent error can meet a read shrinks with the scrub interval — the
// trade the integrity experiment in cmd/pdsirepro measures. With no
// corruption injected the whole layer is inert: nil corruptors answer
// without allocating, the pfs.integrity.* counters stay at zero, and the
// event trajectory is byte-identical to a build without it.

// ErrCorruptData is returned by ReadOp completions when a checksum
// mismatch cannot be repaired: the stripe unit belongs to no redundancy
// group, or fewer than k of its group's other members are live.
var ErrCorruptData = errors.New("pfs: unrecoverable corrupt data")

// IntegrityStats aggregates the integrity layer's activity over a run.
type IntegrityStats struct {
	// Injected counts corruption events armed via InjectCorruption.
	Injected int64

	// Detected counts checksum mismatches found, on reads or by Scrub.
	Detected int64

	// Repaired counts stripe-unit repairs completed (reconstruct from k
	// group members + rewrite in place); Unrecoverable counts mismatches
	// with no group, or too few live members, to reconstruct from.
	Repaired      int64
	Unrecoverable int64

	// SilentReads counts reads that returned corrupt bytes to the
	// application because checksums were off — the quantity the
	// integrity experiment measures.
	SilentReads int64

	// ScrubbedUnits counts stripe units swept by Scrub passes.
	ScrubbedUnits int64
}

// IntegrityStats returns a copy of the integrity-layer activity so far.
func (fs *FS) IntegrityStats() IntegrityStats { return fs.tally.integrity }

// InjectCorruption arms one drawn corruption schedule per server (see
// failure.DrawLSE); schedules beyond the server count are rejected.
func (fs *FS) InjectCorruption(events [][]disk.CorruptionEvent) error {
	if len(events) > len(fs.servers) {
		return fmt.Errorf("pfs: %d corruption schedules for %d servers", len(events), len(fs.servers))
	}
	var n int64
	for i, evs := range events {
		if len(evs) == 0 {
			continue
		}
		fs.servers[i].corr = disk.NewCorruptor(evs)
		n += int64(len(evs))
	}
	fs.tally.integrity.Injected += n
	return nil
}

// CorruptExtent marks [off, off+size) of the named file corrupt as of
// the current sim-time — the landing zone of a write that only partially
// reached the servers, such as a burst-buffer drain torn mid-stream by
// the buffer node's crash (disk.TornWrite mode). The extent is resolved
// through the same stripe-unit placement the data path uses, so the rot
// lands exactly where the drain's pieces would have; pieces whose stripe
// units were never allocated are skipped (nothing stale exists there to
// lie about). Returns the number of stripe-unit pieces marked.
func (fs *FS) CorruptExtent(name string, off, size int64) int {
	st, ok := fs.files[name]
	if !ok || size <= 0 || off < 0 {
		return 0
	}
	now := fs.eng.Now()
	n := 0
	for size > 0 {
		p := pieceAt(off, size, fs.Cfg.StripeUnit)
		off += p.size
		size -= p.size
		s, _ := fs.dataServer(st, p.unit)
		diskOff, ok := s.fileExtent(st.id, p.unit)
		if !ok {
			continue
		}
		if s.corr == nil {
			s.corr = disk.NewCorruptor(nil)
		}
		s.corr.Add(disk.CorruptionEvent{
			Offset: diskOff + p.offIn,
			Length: p.size,
			At:     now,
			Mode:   disk.TornWrite,
		})
		n++
	}
	fs.tally.integrity.Injected += int64(n)
	return n
}

// readCorrupted handles a read whose extent overlaps live corruption.
// Checksums off: the rot rides along to the application, counted but
// unflagged. Checksums on: the mismatch is detected and the unit is
// repaired before delivery, or the read errors with ErrCorruptData.
func (fs *FS) readCorrupted(s *server, gid int, diskOff int64, deliver func(), done func(error)) {
	if !fs.Cfg.Checksums {
		fs.tally.integrity.SilentReads++
		deliver()
		return
	}
	fs.detectAndRepair(s, gid, diskOff, fs.Cfg.StripeUnit, func(err error, _ bool) {
		if err != nil {
			done(err)
			return
		}
		deliver()
	})
}

// detectAndRepair funnels every checksum-mismatch detection of one disk
// offset through a single repair: the first detector counts the
// detection and launches the reconstruction; detectors arriving while it
// is in flight (a scrub crossing a checksummed read, say) join its
// completion instead of double-repairing and double-counting the
// pfs.integrity.* metrics. done receives the repair outcome and whether
// this caller initiated it (false for joiners — pass-level reports count
// only what they initiated).
func (fs *FS) detectAndRepair(s *server, gid int, diskOff, size int64, done func(err error, initiated bool)) {
	if s.repairing == nil {
		s.repairing = make(map[int64][]func(error))
	}
	if waiters, ok := s.repairing[diskOff]; ok {
		s.repairing[diskOff] = append(waiters, func(err error) { done(err, false) })
		return
	}
	s.repairing[diskOff] = nil
	fs.tally.integrity.Detected++
	fs.repairUnit(s, gid, diskOff, size, func(err error) {
		waiters := s.repairing[diskOff]
		delete(s.repairing, diskOff)
		done(err, true)
		for _, w := range waiters {
			w(err)
		}
	})
}

// repairUnit reconstructs the unit at diskOff on s from k parallel
// fragment reads of its redundancy group gid (-1 when unprotected), then
// rewrites it in place on the home drive, clearing the latent
// corruption. done receives ErrCorruptData when there is no group or
// fewer than k live members to reconstruct from, ErrServerDown if a
// server dies mid-repair, else nil.
func (fs *FS) repairUnit(s *server, gid int, diskOff, size int64, done func(error)) {
	var readers []liveMember
	if gid >= 0 {
		readers = fs.ecLiveMembers(nil, gid, fs.red.groups[gid].slotOf(s.idx), fs.red.cfg.K)
	}
	if gid < 0 || len(readers) < fs.red.cfg.K {
		fs.tally.integrity.Unrecoverable++
		done(ErrCorruptData)
		return
	}
	failed := false
	barrier := sim.NewBarrier(fs.eng, len(readers), func(sim.Time) {
		if failed {
			fs.failOp(done)
			return
		}
		wsvc, _ := s.write(diskOff, size)
		sepoch := s.epoch
		s.dq.Submit(wsvc, func(sim.Time) {
			if s.epoch != sepoch {
				fs.failOp(done)
				return
			}
			s.corr.Repair(diskOff, size, fs.eng.Now())
			fs.tally.integrity.Repaired++
			done(nil)
		})
	})
	for _, m := range readers {
		m := m
		roff := fs.ecExtent(m.srv, gid, m.slot)
		svc, _ := m.srv.read(roff, size)
		epoch := m.srv.epoch
		m.srv.dq.Submit(svc, func(sim.Time) {
			if m.srv.epoch != epoch {
				failed = true
			}
			barrier.Arrive()
		})
	}
}

// ScrubReport summarizes one Scrub pass.
type ScrubReport struct {
	// Units counts stripe units read and verified.
	Units int64

	// Detected, Repaired, and Unrecoverable count this pass's checksum
	// mismatches and their outcomes.
	Detected      int64
	Repaired      int64
	Unrecoverable int64

	// Start and End bound the pass in sim-time.
	Start, End sim.Time
}

// Scrub sweeps every stored stripe unit on every server, verifying
// checksums and repairing mismatches from redundancy groups — the
// background media scrub that bounds how long a latent sector error can
// lie in wait. Servers sweep in parallel; each server walks its extents
// in deterministic (file, unit) order at normal disk cost on its own
// queues, so a scrub competes with foreground traffic exactly like any
// other reader. A server that is down (or dies mid-sweep) abandons its
// sweep for this pass. done, if non-nil, receives the pass summary when
// the last server finishes.
func (fs *FS) Scrub(done func(ScrubReport)) {
	rep := &ScrubReport{Start: fs.eng.Now()}
	barrier := sim.NewBarrier(fs.eng, len(fs.servers), func(at sim.Time) {
		rep.End = at
		if done != nil {
			done(*rep)
		}
	})
	for _, s := range fs.servers {
		fs.scrubServer(s, rep, barrier.Arrive)
	}
}

// scrubUnit is one extent a scrub pass visits: a group-unit region
// (gid >= 0, unit is its slot) or a file stripe unit.
type scrubUnit struct {
	gid, file int
	unit      int64
}

// scrubServer chains one server's extent sweep over the extents present
// when the pass starts — group-unit regions, then file units in (file,
// unit) order; each unit is read, then checked against the drive's
// corruption state, then repaired if rotten.
func (fs *FS) scrubServer(s *server, rep *ScrubReport, done func()) {
	if s.down {
		done()
		return
	}
	units := make([]scrubUnit, 0, len(s.ec))
	for _, r := range s.ec {
		units = append(units, scrubUnit{gid: r.gid, unit: int64(r.slot)})
	}
	s.eachFileExtent(func(file int, unit int64) {
		units = append(units, scrubUnit{gid: -1, file: file, unit: unit})
	})
	var next func(i int)
	next = func(i int) {
		if i == len(units) {
			done()
			return
		}
		u := units[i]
		// Resolve the unit's disk offset (zero if a rebuild migrated it
		// away since the pass began), its redundancy group, and its true
		// size — erasure-coded fragment regions are group-unit sized — so
		// repairs go through the right reconstruction path.
		var diskOff int64
		size := fs.Cfg.StripeUnit
		gid := u.gid
		if gid >= 0 {
			if j, ok := s.ecSearch(gid, int(u.unit)); ok {
				diskOff = s.ec[j].off
			}
			size = fs.red.cfg.unitBytes()
		} else {
			diskOff, _ = s.fileExtent(u.file, u.unit)
			if fs.red != nil {
				gid, _ = fs.red.groupOf(u.file, u.unit)
			}
		}
		svc, _ := s.read(diskOff, size)
		epoch := s.epoch
		s.dq.Submit(svc, func(sim.Time) {
			if s.epoch != epoch {
				// The server died mid-sweep: abandon this pass.
				done()
				return
			}
			rep.Units++
			fs.tally.integrity.ScrubbedUnits++
			if !s.corr.FaultIn(diskOff, size, fs.eng.Now()) {
				next(i + 1)
				return
			}
			//lint:allow errflow -- err is deliberately unread when another pass initiated the repair: that pass counts the outcome
			fs.detectAndRepair(s, gid, diskOff, size, func(err error, initiated bool) {
				// A repair someone else initiated is not this pass's: the
				// detection and outcome were already counted there.
				if initiated {
					rep.Detected++
					if err != nil {
						rep.Unrecoverable++
					} else {
						rep.Repaired++
					}
				}
				next(i + 1)
			})
		})
	}
	next(0)
}

// UnrepairedCorruption counts corruption events that have arrived by now
// and not yet been repaired, across all drives (for tests and the
// integrity experiment's bookkeeping).
func (fs *FS) UnrepairedCorruption() int {
	n := 0
	for _, s := range fs.servers {
		n += s.corr.Unrepaired(fs.eng.Now())
	}
	return n
}
