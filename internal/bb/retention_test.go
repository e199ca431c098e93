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
	reg := obs.NewRegistry()
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
		t.Fatal("tier still reachable after the run: a registry function keeps it alive")
	}
	s := reg.Snapshot()
	for name, v := range map[string]int64{
		"bb.absorb.bytes":             want.AbsorbedBytes,
		"bb.drain.bytes":              want.DrainedBytes,
		"bb.node00.flash.page_writes": 2 << 20 / testConfig().Flash.PageSize,
	} {
		if s.Counters[name] != v || v == 0 {
			t.Errorf("%s = %d after the tier was freed, want %d", name, s.Counters[name], v)
		}
	}
	if got := s.Gauges["bb.occupancy.peak_frac"]; got != want.PeakOccupancy || got == 0 {
		t.Errorf("bb.occupancy.peak_frac = %v after the tier was freed, want %v", got, want.PeakOccupancy)
	}
}
