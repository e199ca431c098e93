package sim

// Periodic sampling: the bridge between the event engine and the obs
// sim-time series layer. A single engine-wide sampler tick fires every
// interval of simulated time and runs every registered sample function
// in registration order — one tick, many observers, so arming several
// subsystems (engine depth, per-OSS utilization, in-flight ops) costs
// one extra event per window, not one per series.
//
// The sampler is self-terminating: after running its functions, a tick
// that finds no other live events stops rescheduling itself, so an
// armed engine still drains and Run() still returns. Sampling is only
// armed when a registry has series enabled, which keeps default runs'
// event trajectories untouched.

// Sample registers fn to run every interval of simulated time, at the
// engine's current sampling cadence. The first call fixes the cadence
// and schedules the tick; later calls join the existing cadence (their
// interval argument is ignored) so all series share one time grid.
// No-op for a nil fn or, on the first call, a non-positive interval.
// On a Cluster shard, fn joins the cluster's grid instead (see
// Cluster.Sample): a tick in one shard's queue would stop when that
// shard drains, making series depend on which domains share a shard.
func (e *Engine) Sample(interval Time, fn func(now Time)) {
	if e.cluster != nil {
		e.cluster.Sample(interval, fn)
		return
	}
	if fn == nil {
		return
	}
	if e.sampleEvery > 0 {
		e.sampleFns = append(e.sampleFns, fn)
		return
	}
	if interval <= 0 {
		return
	}
	e.sampleFns = append(e.sampleFns, fn)
	e.sampleEvery = interval
	var tick func()
	tick = func() {
		for _, f := range e.sampleFns {
			f(e.now)
		}
		// Stop once the model has drained: the tick itself must not keep
		// the engine alive forever.
		if e.live == 0 {
			return
		}
		e.Schedule(e.sampleEvery, tick)
	}
	e.Schedule(e.sampleEvery, tick)
}
