package pfs

import (
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestRegistryKeepsCountsNotTheFS: a registry outlives the runs it
// records, so the functions it holds must not keep a finished file
// system alive. Once the run drops its last reference, the FS is
// collected, and a later snapshot still reports the run's counts.
func TestRegistryKeepsCountsNotTheFS(t *testing.T) {
	reg := obs.NewRegistry()
	freed := make(chan struct{})
	func() {
		eng := sim.NewEngine()
		eng.Instrument(reg, nil)
		fs := New(eng, ecConfig(6, 2, 1))
		runtime.SetFinalizer(fs, func(*FS) { close(freed) })
		if err := fs.InjectFaults(sim.NewFaultPlan().Add(OSSTarget(0), 0.5, 0.1)); err != nil {
			t.Fatal(err)
		}
		cl := fs.NewClient(0)
		cl.Create("/f", func(f *File) {
			cl.WriteOp(f, 0, 1<<20, nil, func(error) {
				cl.ReadOp(f, 0, 1<<20, nil, func(error) {})
			})
		})
		eng.Run()
	}()
	collect(t, freed)
	got := reg.Snapshot().Counters
	for name, want := range map[string]int64{
		"pfs.metadata_ops":    1,
		"pfs.faults.crashes":  1,
		"pfs.rebuild.started": 1,
	} {
		if got[name] != want {
			t.Errorf("%s = %d after the FS was freed, want %d", name, got[name], want)
		}
	}
	if got["pfs.oss00.ops"]+got["pfs.oss01.ops"]+got["pfs.oss02.ops"] == 0 {
		t.Error("no per-OSS ops left in the snapshot after the FS was freed")
	}
}

// collect runs the collector, a bounded number of times, until the
// finalizer that closes freed has run, and fails the test if it never
// does.
func collect(t *testing.T, freed <-chan struct{}) {
	t.Helper()
	for range 100 {
		runtime.GC()
		select {
		case <-freed:
			return
		default:
			runtime.Gosched()
		}
	}
	t.Fatal("FS still reachable after the run: a registry function keeps it alive")
}
