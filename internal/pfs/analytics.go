package pfs

import (
	"fmt"

	"repro/internal/obs"
)

// Latency analytics: the opt-in attribution layer over the data path.
// When the engine's registry has op timers enabled, a caller starts its
// own obs.OpTimer with StartWriteOp or StartReadOp, WriteOp and ReadOp
// charge it through every piece, and the caller folds it into exact
// per-stage quantiles with FinishWriteOp or FinishReadOp once the
// logical op has succeeded. When sim-time series are enabled, the
// engine samples per-OSS utilization and queue depths, in-flight ops,
// and running rebuilds on its grid. Neither exists on a default
// registry, and neither changes the events a run dispatches.

// armSeries registers the file system's sim-time series with the
// engine. instrument calls it only when the registry has series
// enabled, so an unsampled run builds none of the names.
func (fs *FS) armSeries() {
	eng := fs.eng
	eng.Series(fs.metric("pfs.ops.inflight"), func() float64 { return float64(fs.inflight) })
	eng.Series(fs.metric("pfs.mds.qdepth"), func() float64 { return float64(fs.mds.QueueLen()) })
	// A server is rebuilding while its crash's incident has chains pending
	// and no recovery cancelled it: one that stays down after its rebuild
	// finished is not.
	eng.Series(fs.metric("pfs.rebuild.active"), func() float64 {
		n := 0
		for i := 0; fs.red != nil && i < len(fs.servers); i++ {
			if inc := fs.red.incidents[i]; inc != nil && inc.pending > 0 && !inc.cancelled {
				n++
			}
		}
		return float64(n)
	})
	for i, s := range fs.servers {
		name := fs.metric(fmt.Sprintf("pfs.oss%02d", i))
		eng.Series(name+".disk.util", s.dq.Utilization)
		eng.Series(name+".disk.qdepth", func() float64 { return float64(s.dq.QueueLen()) })
	}
}

// StartWriteOp restarts t as the stage timer of one logical write
// operation and returns it, or returns nil when op timers are disabled,
// so the op runs untimed. t must not be nil. A caller that runs one op
// at a time passes the same t for every op and allocates nothing; one
// that manages its own retry loop (the fault-injected workload harness)
// passes the timer through every WriteOp attempt, charges
// obs.StageBackoff for retry delays, and folds it in with FinishWriteOp
// on final success.
func (fs *FS) StartWriteOp(t *obs.OpTimer) *obs.OpTimer {
	return fs.otWrite.Start(float64(fs.eng.Now()), t)
}

// FinishWriteOp folds a completed write's timer into the write
// quantiles. No-op when analytics are disabled or t is nil.
func (fs *FS) FinishWriteOp(t *obs.OpTimer) {
	fs.otWrite.Observe(t, float64(fs.eng.Now()))
}

// StartReadOp is StartWriteOp for reads.
func (fs *FS) StartReadOp(t *obs.OpTimer) *obs.OpTimer {
	return fs.otRead.Start(float64(fs.eng.Now()), t)
}

// FinishReadOp folds a completed read's timer into the read quantiles.
func (fs *FS) FinishReadOp(t *obs.OpTimer) {
	fs.otRead.Observe(t, float64(fs.eng.Now()))
}
