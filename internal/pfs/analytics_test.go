package pfs

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// analyticsEngine returns an engine whose registry has both op timers
// and sim-time series armed, the full analytics configuration.
func analyticsEngine(window float64) (*sim.Engine, *obs.Registry) {
	eng := sim.NewEngine()
	reg := obs.NewRegistry()
	reg.EnableOpTimers()
	reg.EnableTimeSeries(window)
	eng.Instrument(reg, nil)
	return eng, reg
}

// timed issues one write or read under a fresh stage timer and observes
// the timer when the op succeeds, as a workload harness times a logical
// op.
func timed(c *Client, f *File, read bool, off, size int64, done func(error)) {
	start, op, finish := c.fs.StartWriteOp, c.WriteOp, c.fs.FinishWriteOp
	if read {
		start, op, finish = c.fs.StartReadOp, c.ReadOp, c.fs.FinishReadOp
	}
	ot := start(new(obs.OpTimer))
	op(f, off, size, ot, func(err error) {
		if err == nil {
			finish(ot)
		}
		if done != nil {
			done(err)
		}
	})
}

func TestAnalyticsQuantilesPopulated(t *testing.T) {
	eng, reg := analyticsEngine(1e-3)
	fs := New(eng, testConfig(4))
	cl := fs.NewClient(0)
	cl.Create("/f", func(f *File) {
		timed(cl, f, false, 0, 4<<20, func(error) {
			timed(cl, f, true, 0, 4<<20, nil)
		})
	})
	eng.Run()

	s := reg.Snapshot()
	w := s.Quantiles["pfs.write.latency_s"]
	r := s.Quantiles["pfs.read.latency_s"]
	if w.Count != 1 || r.Count != 1 {
		t.Fatalf("op counts = %d writes, %d reads, want 1 each", w.Count, r.Count)
	}
	if w.P50 <= 0 || r.P50 <= 0 {
		t.Fatalf("latency p50 = %v write, %v read, want > 0", w.P50, r.P50)
	}
	// The striped data path must attribute transfer and RPC work.
	for _, name := range []string{
		"pfs.write.stage.disk_transfer_s",
		"pfs.write.stage.net_s",
		"pfs.write.stage.rpc_s",
		"pfs.read.stage.disk_transfer_s",
	} {
		if q := s.Quantiles[name]; q.Sum <= 0 {
			t.Fatalf("%s sum = %v, want > 0", name, q.Sum)
		}
	}
	// A healthy run pays no degraded or backoff cost.
	if q := s.Quantiles["pfs.read.stage.degraded_s"]; q.Sum != 0 {
		t.Fatalf("healthy read attributed degraded time %v", q.Sum)
	}
	// Exactly one bottleneck count per observed op.
	var wb, rb int64
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		wb += s.Counters["pfs.write.bottleneck."+st.String()]
		rb += s.Counters["pfs.read.bottleneck."+st.String()]
	}
	if wb != 1 || rb != 1 {
		t.Fatalf("bottleneck counts = %d writes, %d reads, want 1 each", wb, rb)
	}
	if fs.inflight != 0 {
		t.Fatalf("%d ops in flight after drain, want 0", fs.inflight)
	}
}

func TestAnalyticsSeriesPopulated(t *testing.T) {
	eng, reg := analyticsEngine(1e-3)
	fs := New(eng, testConfig(2))
	cl := fs.NewClient(0)
	cl.Create("/f", func(f *File) {
		cl.WriteOp(f, 0, 8<<20, nil, nil)
	})
	eng.Run()
	_ = fs

	s := reg.Snapshot()
	for _, name := range []string{
		"pfs.ops.inflight", "pfs.mds.qdepth", "pfs.rebuild.active",
		"pfs.oss00.disk.util", "pfs.oss01.disk.qdepth",
		"sim.events.pending",
	} {
		ts, ok := s.Series[name]
		if !ok || len(ts.Values) == 0 {
			t.Fatalf("series %s missing or empty", name)
		}
	}
	// The write kept ops in flight at some sampled instant.
	peak := 0.0
	for _, v := range s.Series["pfs.ops.inflight"].Values {
		if v > peak {
			peak = v
		}
	}
	if peak == 0 {
		t.Fatal("inflight series never saw the write in flight")
	}
}

func TestAnalyticsDegradedReadAttributed(t *testing.T) {
	eng, reg := analyticsEngine(1e-3)
	cfg := faultConfig(4)
	cfg.Redundancy = Redundancy{K: 2, M: 1}
	fs := New(eng, cfg)
	cl := fs.NewClient(0)
	var f *File
	cl.Create("/d", func(h *File) {
		f = h
		cl.WriteOp(h, 0, 4<<20, nil, nil)
	})
	eng.Run()
	fs.InjectFaults(sim.NewFaultPlan().Add(OSSTarget(0), eng.Now(), 0))
	timed(cl, f, true, 0, 4<<20, func(err error) {
		if err != nil {
			t.Errorf("degraded read failed: %v", err)
		}
	})
	eng.Run()
	if fs.FaultStats().DegradedReads == 0 {
		t.Fatal("no degraded reads happened; test setup broken")
	}
	if q := reg.Snapshot().Quantiles["pfs.read.stage.degraded_s"]; q.Sum <= 0 {
		t.Fatalf("degraded stage sum = %v, want > 0", q.Sum)
	}
}

func TestRebuildActiveSeriesCountsRunningRebuilds(t *testing.T) {
	// A permanent 4+1 crash: the series shows the rebuild while its chains
	// run and drops back to zero once it completes, though the server
	// stays down for good.
	eng, reg := analyticsEngine(1e-3)
	fs := New(eng, ecConfig(6, 4, 1))
	fs.InjectFaults(sim.NewFaultPlan().Add(OSSTarget(0), 0, 0))
	// Keep the sampler ticking well past the rebuild.
	eng.At(1, func() {})
	eng.Run()
	st := fs.RebuildStats()
	if st.Completed != 1 || st.MaxDuration >= 0.9 {
		t.Fatalf("rebuild lifecycle %+v, want one completed well before t=1", st)
	}
	if !fs.servers[0].down {
		t.Fatal("crashed server came back; the scenario needs it down")
	}
	ts := reg.Snapshot().Series["pfs.rebuild.active"]
	sawRebuild := false
	for i, v := range ts.Values {
		at := ts.Times[i]
		switch {
		case at+ts.WindowSec <= float64(st.MaxDuration) && v > 0:
			sawRebuild = true
		case at > float64(st.MaxDuration) && v != 0:
			t.Fatalf("pfs.rebuild.active = %v at t=%v, after the rebuild completed at %v",
				v, at, st.MaxDuration)
		}
	}
	if !sawRebuild {
		t.Fatalf("pfs.rebuild.active never above 0 during the rebuild: %v", ts.Values)
	}
}

// TestAnalyticsDisabledLeavesNoTrace pins the opt-in contract: on a
// default (even instrumented-but-unarmed) registry the analytics layer
// must register nothing and keep no state.
func TestAnalyticsDisabledLeavesNoTrace(t *testing.T) {
	eng := sim.NewEngine()
	reg := obs.NewRegistry()
	eng.Instrument(reg, nil)
	fs := New(eng, testConfig(2))
	cl := fs.NewClient(0)
	cl.Create("/f", func(f *File) {
		cl.WriteOp(f, 0, 1<<20, nil, func(error) { cl.ReadOp(f, 0, 1<<20, nil, nil) })
	})
	eng.Run()
	s := reg.Snapshot()
	if len(s.Quantiles) != 0 || len(s.Series) != 0 {
		t.Fatalf("unarmed registry accumulated analytics: %d quantiles, %d series",
			len(s.Quantiles), len(s.Series))
	}
	if fs.otWrite != nil || fs.otRead != nil {
		t.Fatal("analytics handles armed without opt-in")
	}
}
