package bb

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Instrumentation for the burst-buffer tier. Everything here follows
// the repo's zero-cost contract: on an uninstrumented engine no handle
// is created and every probe call is a nil-safe no-op; runs without a
// tier register nothing at all. Per-node instruments (the flash FTL's
// counters, the ingest/drain queues) are namespaced bb.nodeNN.* in the
// style of pfs.ossNN.*; sim-time series join the engine's shared
// sampling cadence only when the registry has series enabled.

// instrument registers the tier's probes in the engine's metrics
// registry. A no-op (leaving all handles nil) when the engine is
// uninstrumented.
func (t *Tier) instrument() {
	reg := t.eng.Metrics()
	if reg == nil {
		return
	}
	t.cAbsorbOps = reg.Counter("bb.absorb.ops")
	t.cAbsorbBytes = reg.Counter("bb.absorb.bytes")
	t.cForward = reg.Counter("bb.forward.bytes")
	t.cPassthrough = reg.Counter("bb.passthrough.bytes")
	t.cDrainOps = reg.Counter("bb.drain.ops")
	t.cDrainBytes = reg.Counter("bb.drain.bytes")
	t.cDrainRetry = reg.Counter("bb.drain.retries")
	t.cDrainDrop = reg.Counter("bb.drain.dropped_bytes")
	t.cTorn = reg.Counter("bb.drain.torn")
	t.cStalls = reg.Counter("bb.stall.ops")
	t.cLost = reg.Counter("bb.faults.lost_bytes")
	t.cCrashes = reg.Counter("bb.faults.crashes")
	t.cRecoveries = reg.Counter("bb.faults.recoveries")
	t.cFailedOps = reg.Counter("bb.faults.failed_ops")
	t.hStallWait = reg.Histogram("bb.stall.wait_s", obs.TimeBuckets())
	t.hDrainLag = reg.Histogram("bb.drain.lag_s", obs.TimeBuckets())
	t.gPeakOcc = reg.Gauge("bb.occupancy.peak_frac")
	t.gMaxLag = reg.Gauge("bb.drain.max_lag_s")
	capacity := float64(t.cfg.CapacityBytes()) * float64(len(t.nodes))
	reg.GaugeFunc("bb.capacity.bytes", func() float64 { return capacity })
	for i, n := range t.nodes {
		name := fmt.Sprintf("bb.node%02d", i)
		n.dev.Instrument(reg, name+".flash")
		n.nic.Instrument(name + ".nic")
		n.drainq.Instrument(name + ".drain")
	}
	if w := reg.SeriesWindow(); w > 0 {
		t.armSeries(reg, w)
	}
}

// armSeries registers the tier's sim-time series on the engine's shared
// sampling grid: aggregate occupancy (the saturation curve the sizing
// experiment sweeps) and the drain scheduler's remaining debt.
func (t *Tier) armSeries(reg *obs.Registry, window float64) {
	tsOcc := reg.TimeSeries("bb.occupancy.frac")
	tsBacklog := reg.TimeSeries("bb.drain.backlog_bytes")
	t.eng.Sample(sim.Time(window), func(now sim.Time) {
		ts := float64(now)
		tsOcc.Observe(ts, t.Occupancy())
		tsBacklog.Observe(ts, float64(t.backlogBytes))
	})
}
