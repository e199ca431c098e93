package workload

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// This file runs checkpoint workloads under injected silent corruption —
// the harness behind the integrity experiment in cmd/pdsirepro. A run is
// write → dwell → read-back: every rank checkpoints, latent corruption
// events arrive on the drives over the dwell window (optionally swept by
// periodic scrubs), and the read-back phase measures what reaches the
// application — repaired transparently (checksums on), flagged as a typed
// error (unrecoverable), or delivered silently (checksums off).

// IntegritySpec describes one write/dwell/read-back run under corruption.
type IntegritySpec struct {
	// Spec is the checkpoint phase written and then read back.
	Spec Spec

	// Events is the per-server corruption schedule (failure.DrawLSE).
	Events [][]disk.CorruptionEvent

	// Expose is the dwell between write completion and read-back — the
	// window in which latent errors arrive and lie in wait.
	Expose sim.Time

	// ScrubInterval, when > 0, runs a full Scrub pass every interval
	// throughout the dwell window.
	ScrubInterval sim.Time
}

// Validate reports problems with the spec.
func (s IntegritySpec) Validate() error {
	if err := s.Spec.Validate(); err != nil {
		return err
	}
	if s.Expose < 0 || s.ScrubInterval < 0 {
		return fmt.Errorf("workload: negative time in integrity spec")
	}
	return nil
}

// IntegrityResult reports one integrity run.
type IntegrityResult struct {
	// Write is the checkpoint phase's timing.
	Write Result

	// ReadElapsed covers the read-back phase.
	ReadElapsed sim.Time

	// ScrubPasses counts completed scrub sweeps during the dwell.
	ScrubPasses int

	// FlaggedReads counts read-back ops that failed with a typed error
	// (unrecoverable corruption or a down server) instead of delivering
	// suspect bytes.
	FlaggedReads int64

	// UnrepairedAtRead is the number of corruption events that had arrived
	// and were still unrepaired when read-back began — the exposure the
	// scrub cadence is meant to shrink.
	UnrepairedAtRead int

	// Stats is the file system's integrity-layer accounting; SilentReads
	// is the application-visible corruption count when checksums are off.
	Stats pfs.IntegrityStats
}

// RunIntegrity executes the write/dwell/read-back experiment on a fresh
// file system built from cfg. Determinism carries through: the same cfg,
// spec, and drawn events produce byte-identical metrics snapshots.
func RunIntegrity(cfg pfs.Config, ispec IntegritySpec, reg *obs.Registry, tr *obs.Tracer) IntegrityResult {
	if err := ispec.Validate(); err != nil {
		panic(err)
	}
	eng := sim.NewEngine()
	eng.Instrument(reg, tr)
	fs := pfs.New(eng, cfg)
	if err := fs.InjectCorruption(ispec.Events); err != nil {
		panic(err)
	}

	spec := ispec.Spec
	rs := newRankSet(eng, fs, programs(spec, cfg.StripeUnit))

	var result IntegrityResult

	// step issues each op as a read or a write; errors count into
	// FlaggedReads rather than aborting (a flagged checkpoint record is
	// an outcome to measure, not a harness failure). Each rank's
	// completion is bound once.
	nexts := make([]func(), spec.Ranks)
	completes := make([]func(error), spec.Ranks)
	for r := range completes {
		completes[r] = func(err error) {
			if err != nil {
				result.FlaggedReads++
			}
			nexts[r]()
		}
	}
	step := func(read bool) opStep {
		return func(r int, h *pfs.File, o Op, next func()) {
			nexts[r] = next
			if read {
				rs.clients[r].ReadErr(h, o.Off, o.Size, completes[r])
			} else {
				rs.clients[r].WriteErr(h, o.Off, o.Size, completes[r])
			}
		}
	}

	readBack := func() {
		result.UnrepairedAtRead = fs.UnrepairedCorruption()
		rs.phase(step(true), func(elapsed sim.Time) {
			result.ReadElapsed = elapsed
		})
	}

	afterWrites := func() {
		// Scrub every interval through the dwell window, then read back.
		if ispec.ScrubInterval > 0 {
			for t := ispec.ScrubInterval; t < ispec.Expose; t += ispec.ScrubInterval {
				eng.Schedule(t, func() {
					fs.Scrub(func(pfs.ScrubReport) { result.ScrubPasses++ })
				})
			}
		}
		if ispec.Expose > 0 {
			eng.Schedule(ispec.Expose, readBack)
		} else {
			readBack()
		}
	}

	rs.create(func() {
		result.Write.SetupElapsed = eng.Now()
		rs.phase(step(false), func(elapsed sim.Time) {
			result.Write.Elapsed = elapsed
			afterWrites()
		})
	})

	eng.Run()
	result.Write.Spec = spec
	result.Write.TotalBytes = int64(spec.Ranks) * spec.BytesPerRank
	if result.Write.Elapsed > 0 {
		result.Write.Bandwidth = float64(result.Write.TotalBytes) / float64(result.Write.Elapsed)
	}
	result.Write.MetadataOps = fs.MetadataOps()
	result.Stats = fs.IntegrityStats()
	return result
}
