package bb

import (
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// TestRegistryKeepsCountsNotTheTier: a registry outlives the runs it
// records, so the functions it holds must not keep a finished tier (its
// nodes, flash devices and op pools) alive. Once the run drops its last
// reference, the tier is collected, and a later snapshot still reports
// the run's counts and gauges. The tier's pooled ops point back at it,
// and a finalizer never runs on an object in a reference cycle, so the
// test watches the file system the tier holds: nothing else keeps it.
func TestRegistryKeepsCountsNotTheTier(t *testing.T) {
	// With series on, the engine's sampler reads the tier until the final
	// tick and must let it go then.
	for _, window := range []float64{0, 0.1} {
		reg := obs.NewRegistry()
		reg.EnableTimeSeries(window)
		freed := make(chan struct{})
		var want Stats
		func() {
			r := newRig(t, testConfig(), 2, reg)
			runtime.SetFinalizer(r.fs, func(*pfs.FS) { close(freed) })
			r.writeRound(t, 1<<20, false, func(sim.Time) {})
			r.eng.Run()
			want = r.tier.Stats()
		}()
		collected := false
		for i := 0; i < 100 && !collected; i++ {
			runtime.GC()
			select {
			case <-freed:
				collected = true
			default:
				runtime.Gosched()
			}
		}
		if !collected {
			t.Fatalf("window %v: tier still reachable after the run: a registry function keeps it alive", window)
		}
		s := reg.Snapshot()
		for name, v := range map[string]int64{
			"bb.absorb.bytes":             want.AbsorbedBytes,
			"bb.drain.bytes":              want.DrainedBytes,
			"bb.node00.flash.page_writes": 2 << 20 / testConfig().Flash.PageSize,
		} {
			if s.Counters[name] != v || v == 0 {
				t.Errorf("window %v: %s = %d after the tier was freed, want %d", window, name, s.Counters[name], v)
			}
		}
		if got := s.Gauges["bb.occupancy.peak_frac"]; got != want.PeakOccupancy || got == 0 {
			t.Errorf("window %v: bb.occupancy.peak_frac = %v after the tier was freed, want %v", window, got, want.PeakOccupancy)
		}
		if window > 0 && len(s.Series["bb.occupancy.frac"].Values) == 0 {
			t.Errorf("window %v: the tier recorded no series", window)
		}
	}
}
