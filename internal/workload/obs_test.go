package workload

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bb"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// goldenSpec is small enough to run in milliseconds but exercises the
// strided RMW path, lock contention, and metadata traffic.
func goldenSpec() (pfs.Config, Spec) {
	return pfs.PanFSLike(4), Spec{
		Ranks:        8,
		BytesPerRank: 1 << 20,
		RecordSize:   47008,
		Pattern:      N1Strided,
	}
}

// TestSameSeedRunsProduceIdenticalMetrics is the determinism golden test:
// two independent runs of the same configuration must serialize to
// byte-identical metrics snapshots and trace files.
func TestSameSeedRunsProduceIdenticalMetrics(t *testing.T) {
	run := func() ([]byte, []byte) {
		cfg, spec := goldenSpec()
		reg := obs.NewRegistry()
		tr := obs.NewTracer()
		Run(cfg, spec, reg, tr)
		var m, tb bytes.Buffer
		if err := reg.WriteJSON(&m); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteJSON(&tb); err != nil {
			t.Fatal(err)
		}
		return m.Bytes(), tb.Bytes()
	}
	m1, t1 := run()
	m2, t2 := run()
	if !bytes.Equal(m1, m2) {
		t.Fatalf("same-seed metrics snapshots differ:\n%s\nvs\n%s", m1, m2)
	}
	if !bytes.Equal(t1, t2) {
		t.Fatal("same-seed trace files differ")
	}
	if len(m1) == 0 || len(t1) == 0 {
		t.Fatal("empty metrics or trace output")
	}
}

// TestProbedRunPopulatesPFSMetrics sanity-checks the probe wiring end to
// end: a strided run on PanFS-like config must record RMW penalties, lock
// traffic, metadata ops, server histograms, and engine counters.
func TestProbedRunPopulatesPFSMetrics(t *testing.T) {
	cfg, spec := goldenSpec()
	reg := obs.NewRegistry()
	res := Run(cfg, spec, reg, nil)
	if res.Bandwidth <= 0 {
		t.Fatalf("bandwidth = %v", res.Bandwidth)
	}
	s := reg.Snapshot()
	for _, name := range []string{
		"pfs.metadata_ops",
		"pfs.rmw_ops",
		"pfs.lock.waits",
		"sim.events_dispatched",
		"pfs.oss00.ops",
		"pfs.oss00.bytes_written",
	} {
		if s.Counters[name] <= 0 {
			t.Errorf("counter %q = %d, want > 0", name, s.Counters[name])
		}
	}
	if h, ok := s.Histograms["pfs.oss00.disk.service_s"]; !ok || h.Count == 0 {
		t.Errorf("disk service histogram empty: %+v", h)
	}
	if h, ok := s.Histograms["pfs.lock.wait_s"]; !ok || h.Count == 0 {
		t.Errorf("lock wait histogram empty: %+v", h)
	}
	if g := s.Gauges["pfs.oss00.disk.seek_s"]; g <= 0 {
		t.Errorf("disk seek gauge = %v, want > 0", g)
	}
	if g := s.Gauges["pfs.oss00.disk.utilization"]; g <= 0 || g > 1 {
		t.Errorf("oss disk utilization = %v, want in (0,1]", g)
	}
}

// TestRunWithoutProbesMatchesProbedRun: observation must not perturb
// the simulation. Each run goes three ways: unprobed, on a plain
// registry, and on a registry with series and op timers (and a tracer,
// where the run is on one engine). All three return the same result. The
// two snapshots agree on every counter, gauge and histogram they share
// except sim.cluster.windows, which counts the coordinator's windows and
// so its ticks; the probed one adds only quantile, bottleneck and series
// keys.
func TestRunWithoutProbesMatchesProbedRun(t *testing.T) {
	for _, c := range []struct {
		name   string
		traced bool
		run    func(*obs.Registry, *obs.Tracer) any
	}{
		{"faults_2p1_bb_crash", true, func(reg *obs.Registry, tr *obs.Tracer) any {
			cfg, fspec := bbFaultSpec()
			cfg.Redundancy = pfs.Redundancy{K: 2, M: 1}
			fspec.MaxRetries = 4
			fspec.RetryBackoff = sim.Time(2e-3)
			fspec.Plan = sim.NewFaultPlan().
				Add(pfs.OSSTarget(0), 0.4, 0.1).
				Add(bb.NodeTarget(1), 0.51, 0.15)
			return RunFaults(cfg, fspec, reg, tr)
		}},
		{"rebuild_2pod", false, func(reg *obs.Registry, _ *obs.Tracer) any {
			spec := rebuildSpec()
			spec.Pods = 2
			return RunRebuild(spec, reg)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			plain := c.run(nil, nil)
			counted := obs.NewRegistry()
			countedRes := c.run(counted, nil)
			probed := obs.NewRegistry()
			probed.EnableOpTimers()
			probed.EnableTimeSeries(0.01)
			var tr *obs.Tracer
			if c.traced {
				tr = obs.NewTracer()
			}
			probedRes := c.run(probed, tr)
			if !reflect.DeepEqual(plain, countedRes) {
				t.Errorf("a registry changed the run:\n%+v\nvs\n%+v", plain, countedRes)
			}
			if !reflect.DeepEqual(plain, probedRes) {
				t.Errorf("series, op timers and tracing changed the run:\n%+v\nvs\n%+v", plain, probedRes)
			}

			a, b := counted.Snapshot(), probed.Snapshot()
			if len(b.Series) == 0 || len(b.Quantiles) == 0 {
				t.Fatalf("the probed run recorded %d series and %d quantiles", len(b.Series), len(b.Quantiles))
			}
			for k, v := range a.Counters {
				if w, ok := b.Counters[k]; (!ok || w != v) && k != "sim.cluster.windows" {
					t.Errorf("counter %s = %d plain, %d probed", k, v, w)
				}
			}
			for k, v := range a.Gauges {
				if w, ok := b.Gauges[k]; !ok || w != v {
					t.Errorf("gauge %s = %v plain, %v probed", k, v, w)
				}
			}
			for k, h := range a.Histograms {
				if g, ok := b.Histograms[k]; !ok || !reflect.DeepEqual(g, h) {
					t.Errorf("histogram %s = %+v plain, %+v probed", k, h, g)
				}
			}
			for k := range b.Counters {
				if _, ok := a.Counters[k]; !ok && !strings.Contains(k, ".bottleneck.") {
					t.Errorf("probing added counter %s", k)
				}
			}
			for k := range b.Gauges {
				if _, ok := a.Gauges[k]; !ok {
					t.Errorf("probing added gauge %s", k)
				}
			}
			for k := range b.Histograms {
				if _, ok := a.Histograms[k]; !ok {
					t.Errorf("probing added histogram %s", k)
				}
			}
		})
	}
}

// TestSharedRegistrySumsCountsKeepsLastGauges pins the rule for runs
// that share a registry, as a figure's runs do: every counter, and every
// histogram's count and bucket counts, is the sum of what each run
// records alone, and every gauge and every series holds the last run's
// value (or the first's, where the last registers none). The two runs
// register every count the models keep as tallies: k+m groups under an
// OSS fault plan, then a write-back tier whose node crash tears a drain.
// Histogram sums are floats added in a different order, so only counts
// are compared.
func TestSharedRegistrySumsCountsKeepsLastGauges(t *testing.T) {
	runs := []func(*obs.Registry){
		func(reg *obs.Registry) {
			cfg, fspec := goldenFaultSpec()
			cfg.Redundancy = pfs.Redundancy{K: 2, M: 1}
			RunFaults(cfg, fspec, reg, nil)
		},
		func(reg *obs.Registry) {
			cfg, fspec := bbFaultSpec()
			fspec.MaxRetries = 4
			fspec.RetryBackoff = sim.Time(2e-3)
			fspec.Plan = sim.NewFaultPlan().
				Add(pfs.OSSTarget(0), 0.4, 0.1).
				Add(bb.NodeTarget(1), 0.51, 0.15) // mid-drain: tears it
			if res := RunFaults(cfg, fspec, reg, nil); res.BB.TornDrains == 0 {
				t.Fatalf("the node crash tore no drain: %+v", res.BB)
			}
		},
	}
	newReg := func() *obs.Registry {
		reg := obs.NewRegistry()
		reg.EnableTimeSeries(0.01)
		return reg
	}
	shared := newReg()
	var alone [2]obs.Snapshot
	for i, run := range runs {
		run(shared)
		reg := newReg()
		run(reg)
		alone[i] = reg.Snapshot()
	}
	got := shared.Snapshot()
	a, b := alone[0], alone[1]

	for _, key := range []string{
		"sim.events_dispatched", "sim.faults.injected", "workload.ckpt.rounds",
		"pfs.oss00.ops", "pfs.rmw_ops", "pfs.lock.waits", "pfs.faults.crashes",
		"pfs.rebuild.started", "pfs.loss.events", "pfs.integrity.injected",
		"bb.absorb.bytes", "bb.drain.torn", "bb.faults.lost_bytes", "bb.node01.flash.page_writes",
	} {
		if _, ok := got.Counters[key]; !ok {
			t.Errorf("counter %s not registered: the runs do not cover every tally", key)
		}
	}
	for k, n := range got.Counters {
		if want := a.Counters[k] + b.Counters[k]; n != want {
			t.Errorf("counter %s = %d, want %d + %d", k, n, a.Counters[k], b.Counters[k])
		}
	}
	for k, h := range got.Histograms {
		ha, hb := a.Histograms[k], b.Histograms[k]
		if want := ha.Count + hb.Count; h.Count != want {
			t.Errorf("histogram %s count = %d, want %d + %d", k, h.Count, ha.Count, hb.Count)
		}
		for i, n := range h.Counts {
			var want uint64
			for _, s := range []obs.HistogramSnapshot{ha, hb} {
				if i < len(s.Counts) {
					want += s.Counts[i]
				}
			}
			if n != want {
				t.Errorf("histogram %s bucket %d = %d, want %d", k, i, n, want)
			}
		}
	}
	for k, v := range got.Gauges {
		want, ok := b.Gauges[k]
		if !ok {
			want = a.Gauges[k]
		}
		if v != want {
			t.Errorf("gauge %s = %v, want the last run's %v", k, v, want)
		}
	}
	if len(got.Series) == 0 {
		t.Fatal("the runs recorded no series")
	}
	for k, s := range got.Series {
		want, ok := b.Series[k]
		if !ok {
			want = a.Series[k]
		}
		if !reflect.DeepEqual(s, want) {
			t.Errorf("series %s has %d windows, want the last run's %d", k, len(s.Times), len(want.Times))
		}
	}
}
