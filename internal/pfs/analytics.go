package pfs

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Latency analytics: the opt-in attribution layer over the data path.
// When the engine's registry has op timers enabled, every WriteErr/
// ReadErr carries an obs.OpTimer through its pieces and folds it into
// exact per-stage quantiles at completion; when sim-time series are
// enabled, a periodic sampler records per-OSS utilization, queue
// depths, in-flight ops, and running rebuilds on a fixed window grid.
// Neither exists on a default registry — disabled runs schedule the
// same events and serialize byte-identical snapshots.

// armSeries registers the file system's sim-time series and joins the
// engine's sampling cadence. Called from instrument only when the
// registry has EnableTimeSeries armed.
func (fs *FS) armSeries(reg *obs.Registry, window float64) {
	fs.tsOn = true
	tsInflight := reg.TimeSeries(fs.metric("pfs.ops.inflight"))
	tsMDS := reg.TimeSeries(fs.metric("pfs.mds.qdepth"))
	tsRebuild := reg.TimeSeries(fs.metric("pfs.rebuild.active"))
	type srvSeries struct {
		s    *server
		util *obs.TimeSeries
		qd   *obs.TimeSeries
	}
	series := make([]srvSeries, len(fs.servers))
	for i, s := range fs.servers {
		name := fs.metric(fmt.Sprintf("pfs.oss%02d", i))
		series[i] = srvSeries{
			s:    s,
			util: reg.TimeSeries(name + ".disk.util"),
			qd:   reg.TimeSeries(name + ".disk.qdepth"),
		}
	}
	fs.eng.Sample(sim.Time(window), func(now sim.Time) {
		t := float64(now)
		tsInflight.Observe(t, float64(fs.inflight))
		tsMDS.Observe(t, float64(fs.mds.QueueLen()))
		rebuilding := 0
		for _, e := range series {
			e.util.Observe(t, e.s.dq.Utilization())
			e.qd.Observe(t, float64(e.s.dq.QueueLen()))
			if fs.rebuilding(e.s) {
				rebuilding++
			}
		}
		tsRebuild.Observe(t, float64(rebuilding))
	})
}

// rebuilding reports whether s's crash has a rebuild still running: its
// incident has chains pending and no recovery cancelled it. A server that
// stays down after its rebuild finished is not rebuilding.
func (fs *FS) rebuilding(s *server) bool {
	if fs.red == nil {
		return false
	}
	inc := fs.red.incidents[s.idx]
	return inc != nil && inc.pending > 0 && !inc.cancelled
}

// StartWriteOp restarts t as the stage timer of one logical write
// operation and returns it (a new timer when t is nil), or returns nil
// when op timers are disabled. Callers that manage their own retry loops
// (the fault-injected workload harness) start one timer per logical op,
// pass it through WriteOp attempts, charge obs.StageBackoff for retry
// delays, and fold it in with FinishWriteOp on final success; one that
// runs an op at a time can pass the same t for every op.
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

// InFlight reports the number of client data operations currently in
// flight (0 unless time-series sampling is armed, which is what
// maintains the count).
func (fs *FS) InFlight() int64 { return fs.inflight }
