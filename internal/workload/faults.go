package workload

import (
	"fmt"

	"repro/internal/bb"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// This file runs checkpoint workloads under injected storage failures —
// the harness validating the analytic checkpoint-interval models in
// internal/failure against a simulation whose servers actually crash. A
// run alternates compute phases with checkpoint phases; each rank's
// failed writes retry with capped exponential backoff and are abandoned
// (counted, never silently lost) when the error persists, so the run
// completes even through permanent failures and reports the
// application-visible slowdown.

// FaultSpec describes a multi-checkpoint run under a fault plan.
type FaultSpec struct {
	// Spec is the checkpoint phase every round issues.
	Spec Spec

	// Checkpoints is the number of compute+checkpoint rounds.
	Checkpoints int

	// ComputeTime is the useful work simulated between checkpoints — the
	// checkpoint interval tau of the Daly model.
	ComputeTime sim.Time

	// Plan is the fault schedule injected into the file system. Nil runs
	// fault-free: the event trajectory is then identical to the same
	// phases run without the fault layer at all.
	Plan *sim.FaultPlan

	// MaxRetries bounds per-op retries of a failed write or read before
	// the op is dropped. Zero drops on the first error, and so does
	// pfs.ErrDataLoss, which no retry cures.
	MaxRetries int

	// RetryBackoff is the delay before the first retry; it doubles per
	// attempt, capped at MaxBackoff (default RetryBackoff).
	RetryBackoff sim.Time
	MaxBackoff   sim.Time

	// BB, when non-nil, routes every checkpoint write through a burst-
	// buffer tier of the given shape (see internal/bb) instead of
	// straight into the file system; reads still bypass the buffer.
	// Fault-plan targets named bb.NodeTarget crash buffer nodes (the
	// plan drives both layers through one sim.FanoutSink). Nil keeps
	// the direct path, byte-identical to a build without the tier.
	BB *bb.Config
}

// Validate reports problems with the spec.
func (s FaultSpec) Validate() error {
	if err := s.Spec.Validate(); err != nil {
		return err
	}
	switch {
	case s.Checkpoints < 1:
		return fmt.Errorf("workload: Checkpoints %d < 1", s.Checkpoints)
	case s.ComputeTime < 0 || s.RetryBackoff < 0 || s.MaxBackoff < 0:
		return fmt.Errorf("workload: negative time in fault spec")
	case s.MaxRetries < 0:
		return fmt.Errorf("workload: MaxRetries %d < 0", s.MaxRetries)
	}
	if s.BB != nil {
		if err := s.BB.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// FaultResult reports a fault-injected checkpoint run. The embedded
// Result's Elapsed sums the checkpoint phases (the application-visible
// checkpoint cost); compute time is excluded from it.
type FaultResult struct {
	Result

	// Checkpoints and ComputeTime echo the spec.
	Checkpoints int
	ComputeTime sim.Time

	// WallClock is the full simulated duration: setup, compute phases,
	// and checkpoint phases.
	WallClock sim.Time

	// Utilization is useful compute divided by wall clock — directly
	// comparable to failure.Daly.Utilization at tau = ComputeTime.
	Utilization float64

	// Retries counts write/read attempts repeated after a failure;
	// DroppedOps counts ops abandoned after MaxRetries.
	Retries    int64
	DroppedOps int64

	// Faults is the file system's failure-layer accounting.
	Faults pfs.FaultStats

	// BB is the burst-buffer tier's accounting (zero without one), and
	// DrainedAt the sim-time the tier finished draining after the last
	// checkpoint round — WallClock excludes that tail because the
	// application is already computing while it drains.
	BB        bb.Stats
	DrainedAt sim.Time
}

// RunFaults executes Checkpoints rounds of compute followed by the
// checkpoint phase from spec.Spec on a fresh file system, with
// spec.Plan's failures injected. Determinism carries through: the same
// cfg, spec, and plan produce byte-identical metrics snapshots.
func RunFaults(cfg pfs.Config, fspec FaultSpec, reg *obs.Registry, tr *obs.Tracer) FaultResult {
	if err := fspec.Validate(); err != nil {
		panic(err)
	}
	eng := sim.NewEngine()
	eng.Instrument(reg, tr)
	fs := pfs.New(eng, cfg)
	var tier *bb.Tier
	if fspec.BB != nil {
		tier = bb.NewTier(fs, *fspec.BB)
	}
	if tier == nil {
		if err := fs.InjectFaults(fspec.Plan); err != nil {
			panic(err)
		}
	} else {
		// One plan drives both layers; scheduling it once through a
		// fan-out keeps the sim.faults.* counters and trace exact.
		if err := fspec.Plan.Schedule(eng, sim.FanoutSink{fs, tier}); err != nil {
			panic(err)
		}
	}

	spec := fspec.Spec
	progs := programs(spec, cfg.StripeUnit)
	rs := newRankSet(fs, progs)
	rs.tier = tier
	rs.maxRetries, rs.backoff, rs.maxBackoff = fspec.MaxRetries, fspec.RetryBackoff, fspec.MaxBackoff
	if rs.maxBackoff <= 0 {
		rs.maxBackoff = fspec.RetryBackoff
	}

	// Fault-path counters exist only when a plan or retries are armed,
	// so that a fault-free run's snapshot matches RunPrograms exactly.
	n := rs.tally
	if (fspec.Plan.Len() > 0 || fspec.MaxRetries > 0) && reg != nil {
		reg.CounterFunc("workload.ckpt.retries", func() int64 { return n.retries })
		reg.CounterFunc("workload.ckpt.dropped_ops", func() int64 { return n.dropped })
		reg.CounterFunc("workload.ckpt.rounds", func() int64 { return n.rounds })
	}

	result := FaultResult{Checkpoints: fspec.Checkpoints, ComputeTime: fspec.ComputeTime}
	// An op that fails past its retries is abandoned and the rank moves
	// on: the degraded checkpoint is accounted, not hung.
	rs.outcome = func(_ *Op, _ sim.Time, err error) {
		if err != nil {
			n.dropped++
		}
	}

	// A round counts as begun when its checkpoint phase starts, so
	// between rounds n.rounds is also the number finished.
	var startRound func()
	startRound = func() {
		if n.rounds == int64(fspec.Checkpoints) {
			result.WallClock = eng.Now()
			return
		}
		begin := func() {
			n.rounds++
			rs.phase(func(elapsed sim.Time) {
				result.Elapsed += elapsed
				startRound()
			})
		}
		if fspec.ComputeTime > 0 {
			eng.Schedule(fspec.ComputeTime, begin)
		} else {
			begin()
		}
	}
	rs.create(progs, func() {
		result.SetupElapsed = eng.Now()
		startRound()
	})

	eng.Run()
	result.Spec = spec
	result.Retries, result.DroppedOps = n.retries, n.dropped
	result.TotalBytes = int64(spec.Ranks) * spec.BytesPerRank * int64(fspec.Checkpoints)
	if result.Elapsed > 0 {
		result.Bandwidth = float64(result.TotalBytes) / float64(result.Elapsed)
	}
	result.MetadataOps = fs.MetadataOps()
	result.Faults = fs.FaultStats()
	if tier != nil {
		result.BB = tier.Stats()
		result.DrainedAt = eng.Now()
	}
	if result.WallClock > 0 {
		result.Utilization = float64(fspec.ComputeTime) * float64(fspec.Checkpoints) / float64(result.WallClock)
	}
	return result
}
