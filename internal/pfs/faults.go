package pfs

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// This file is the failure half of the striped-FS model: what one dead OSS
// does to everyone else. An injected crash (FS implements sim.FaultSink, so
// a sim.FaultPlan drives it directly) marks the server down and bumps its
// epoch; operations in flight discover at their next completion stage that
// the acknowledgment they were waiting for died with the server, pay the
// client's RPC timeout, and error back. Stripe locks held by a failed write
// linger for the DLM lease period before waiters may proceed. Reads of the
// dead server's stripes are reconstructed from the piece's k+m group
// (redundancy.go) or, on an unprotected file system, fail the same way.
// All of it is ordinary deterministic event traffic: same plan, same
// seed, same trajectory.

// ErrServerDown is returned by WriteOp/ReadOp completions when the
// operation's object storage server crashed before acknowledging, or —
// for reads — when no redundancy group can reconstruct the data.
var ErrServerDown = errors.New("pfs: object storage server down")

// FaultStats aggregates the failure layer's activity over a run.
// Rebuild activity is in RebuildStats.
type FaultStats struct {
	// Crashes and Recoveries count state transitions actually applied
	// (redundant plan events against an already-down target do not count).
	Crashes    int64
	Recoveries int64

	// FailedOps counts client operations that errored on a dead server.
	FailedOps int64

	// DegradedReads counts reads reconstructed from k group survivors.
	DegradedReads int64

	// LeaseExpiries counts stripe locks reclaimed from failed writers
	// after the DLM lease period.
	LeaseExpiries int64
}

// FaultStats returns a copy of the failure-layer activity so far.
func (fs *FS) FaultStats() FaultStats { return fs.faults }

// OSSTarget names server i for FaultPlan targeting ("oss0", "oss1", ...).
func OSSTarget(i int) string { return fmt.Sprintf("oss%d", i) }

// InjectFaults arms a fault plan against this file system. Targets are
// OSSTarget names; unknown targets are ignored, so one plan can drive
// several subsystems. A nil or empty plan is a no-op, and with no plan
// injected the fault layer never alters a run. An invalid plan (unsorted
// or overlapping per-target events) is rejected whole with a typed
// *sim.PlanError and arms nothing.
func (fs *FS) InjectFaults(plan *sim.FaultPlan) error {
	return plan.Schedule(fs.eng, fs)
}

// serverByTarget resolves an OSSTarget name, or nil for foreign targets.
// Only the exact OSSTarget spelling names a server: FaultPlan.Validate
// checks overlaps per target string, so an alias such as "oss01" for
// "oss1" would let two overlapping windows hit one server.
func (fs *FS) serverByTarget(target string) *server {
	var i int
	if _, err := fmt.Sscanf(target, "oss%d", &i); err != nil || OSSTarget(i) != target {
		return nil
	}
	if i < 0 || i >= len(fs.servers) {
		return nil
	}
	return fs.servers[i]
}

// CrashTarget implements sim.FaultSink: the named server stops answering.
// Bumping the epoch is what fails operations already inside the server —
// they compare epochs at each completion stage instead of being hunted
// down and cancelled, which keeps the event queue untouched.
func (fs *FS) CrashTarget(target string) {
	srv := fs.serverByTarget(target)
	if srv == nil || srv.down {
		return
	}
	srv.down = true
	srv.epoch++
	fs.faults.Crashes++
	fs.cCrashes.Inc()
	if fs.red != nil {
		fs.ecOnCrash(srv)
	}
}

// RecoverTarget implements sim.FaultSink: the named server returns to
// service with its data intact, so any rebuild of its groups stands down.
func (fs *FS) RecoverTarget(target string) {
	srv := fs.serverByTarget(target)
	if srv == nil || !srv.down {
		return
	}
	srv.down = false
	fs.faults.Recoveries++
	fs.cRecoveries.Inc()
	if fs.red != nil {
		fs.ecOnRecover(srv)
	}
}

// FailTimeout is the client-visible RPC timeout: Config.FailTimeout,
// or 25ms when that is zero.
func (fs *FS) FailTimeout() sim.Time {
	if fs.Cfg.FailTimeout > 0 {
		return fs.Cfg.FailTimeout
	}
	return sim.Time(25e-3)
}

// failOp errors one client operation against a dead server: the client
// learns nothing until its RPC timeout fires.
func (fs *FS) failOp(done func(error)) {
	fs.faults.FailedOps++
	fs.cFailedOps.Inc()
	fs.eng.Schedule(fs.FailTimeout(), func() { done(ErrServerDown) })
}

// expireLease reclaims a stripe lock abandoned by a failed write. With
// LeaseExpiry zero the manager reclaims immediately; otherwise waiters
// stall for the full lease — the cost DLM-based systems pay for not
// having to ask a dead server's permission.
func (fs *FS) expireLease(st *fileState, unit int64) {
	if fs.Cfg.LeaseExpiry <= 0 {
		fs.release(st, unit)
		return
	}
	fs.faults.LeaseExpiries++
	fs.cLeaseExp.Inc()
	fs.eng.Schedule(fs.Cfg.LeaseExpiry, func() { fs.release(st, unit) })
}
