package sim

import "repro/internal/obs"

// Periodic sampling: the bridge between the event engine and the obs
// sim-time series layer. A model names a function of its state with
// Engine.Series, and one sampler per simulation evaluates every such
// function on a fixed grid of simulated time, in registration order. A
// standalone engine owns its sampler; the shards of a Cluster share the
// cluster's, so every domain samples on one grid whichever shard hosts
// it.
//
// Ticks are not events. A tick at t runs after every event before t and
// before any event at t, with the clocks standing at t (a utilization
// divides by Now): Engine.RunUntil and Cluster.Run dispatch up to the
// next tick, tick, and go on. The grid starts one window in and
// accumulates (next += window), and the k-th tick is filed under window
// k: the accumulated time can fall a rounding error short of k windows,
// and dividing it would file the tick a window early. One final tick
// follows the last event; then the clocks read the last event's time
// again and the sampler drops its functions for good, and with them the
// models they read. So series never change the events a run dispatches,
// its clock or its counts, and with series off there is no tick at all.
type sampler struct {
	every, next Time            // grid step and next tick; every is 0 until armed
	ticks       int64           // ticks run so far; the next one is filed under window ticks+1
	series      []func(k int64) // each records its function's value in window k
	stopped     bool            // the final tick has run
}

// Series records fn as the named sim-time series of the engine's
// registry, sampled at every tick of the engine's grid (its cluster's,
// on a shard). The first series arms the grid at the registry's window.
// A no-op unless the registry has series enabled, and once the final
// tick has run.
func (e *Engine) Series(name string, fn func() float64) { e.smp.add(e.metrics, name, fn) }

func (s *sampler) add(reg *obs.Registry, name string, fn func() float64) {
	w := Time(reg.SeriesWindow())
	if w <= 0 || fn == nil || s.stopped {
		return
	}
	if s.every == 0 {
		s.every, s.next = w, w
	}
	ts := reg.TimeSeries(name)
	s.series = append(s.series, func(k int64) { ts.ObserveWindow(k, fn()) })
}

// armed reports whether a tick is due at s.next.
func (s *sampler) armed() bool { return len(s.series) > 0 }

// sample records every series at s.next, where the caller has stood
// the clocks, and moves the grid one window on. After the final tick
// (last) the sampler stops and releases its functions.
func (s *sampler) sample(last bool) {
	s.ticks++
	for _, record := range s.series {
		record(s.ticks)
	}
	s.next += s.every
	if last {
		s.series, s.stopped = nil, true
	}
}
