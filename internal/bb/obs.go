package bb

import (
	"fmt"

	"repro/internal/obs"
)

// Instrumentation for the burst-buffer tier. The tier counts into its
// Stats whether or not it is instrumented; on an instrumented engine
// the registry reads those counts through functions that capture the
// Stats alone, never the Tier, so a finished tier is freed while its
// counts stay readable. Runs without a tier register nothing at all.
// Per-node instruments (the flash FTL's counters, the ingest/drain
// queues) are namespaced bb.nodeNN.* in the style of pfs.ossNN.*; the
// sim-time series are functions the engine samples when the registry
// has series enabled.

// instrument registers the tier's probes in the engine's metrics
// registry. A no-op (leaving the histograms nil) when the engine is
// uninstrumented.
func (t *Tier) instrument() {
	reg := t.eng.Metrics()
	if reg == nil {
		return
	}
	st := t.stats
	reg.CounterFunc("bb.absorb.ops", func() int64 { return st.AbsorbedOps })
	reg.CounterFunc("bb.absorb.bytes", func() int64 { return st.AbsorbedBytes })
	reg.CounterFunc("bb.forward.bytes", func() int64 { return st.ForwardedBytes })
	reg.CounterFunc("bb.passthrough.bytes", func() int64 { return st.PassthroughBytes })
	reg.CounterFunc("bb.drain.ops", func() int64 { return st.DrainedOps })
	reg.CounterFunc("bb.drain.bytes", func() int64 { return st.DrainedBytes })
	reg.CounterFunc("bb.drain.retries", func() int64 { return st.DrainRetries })
	reg.CounterFunc("bb.drain.dropped_bytes", func() int64 { return st.DroppedDrainBytes })
	reg.CounterFunc("bb.drain.torn", func() int64 { return st.TornDrains })
	reg.CounterFunc("bb.stall.ops", func() int64 { return st.Stalls })
	reg.CounterFunc("bb.faults.lost_bytes", func() int64 { return st.LostBytes })
	reg.CounterFunc("bb.faults.crashes", func() int64 { return st.Crashes })
	reg.CounterFunc("bb.faults.recoveries", func() int64 { return st.Recoveries })
	reg.CounterFunc("bb.faults.failed_ops", func() int64 { return st.FailedOps })
	t.hStallWait = reg.Histogram("bb.stall.wait_s", obs.TimeBuckets())
	t.hDrainLag = reg.Histogram("bb.drain.lag_s", obs.TimeBuckets())
	reg.GaugeFunc("bb.occupancy.peak_frac", func() float64 { return st.PeakOccupancy })
	reg.GaugeFunc("bb.drain.max_lag_s", func() float64 { return float64(st.MaxDrainLag) })
	capacity := float64(t.cfg.CapacityBytes()) * float64(len(t.nodes))
	reg.GaugeFunc("bb.capacity.bytes", func() float64 { return capacity })
	for i, n := range t.nodes {
		name := fmt.Sprintf("bb.node%02d", i)
		n.dev.Instrument(reg, name+".flash")
		n.nic.Instrument(name + ".nic")
		n.drainq.Instrument(name + ".drain")
	}
	// Aggregate occupancy (the saturation curve the sizing experiment
	// sweeps) and the drain scheduler's remaining debt.
	t.eng.Series("bb.occupancy.frac", t.Occupancy)
	t.eng.Series("bb.drain.backlog_bytes", func() float64 { return float64(t.backlogBytes) })
}
