package workload

import (
	"bytes"
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

// TestRunWithoutProbesMatchesProbedRun: instrumentation must not perturb
// the simulation itself.
func TestRunWithoutProbesMatchesProbedRun(t *testing.T) {
	cfg, spec := goldenSpec()
	plain := Run(cfg, spec, nil, nil)
	reg := obs.NewRegistry()
	probed := Run(cfg, spec, reg, obs.NewTracer())
	if plain.Elapsed != probed.Elapsed {
		t.Fatalf("probes changed the simulation: %v vs %v", plain.Elapsed, probed.Elapsed)
	}
	if plain.Bandwidth != probed.Bandwidth {
		t.Fatalf("bandwidth differs: %v vs %v", plain.Bandwidth, probed.Bandwidth)
	}
}

// TestSharedRegistrySumsCountsKeepsLastGauges pins the rule for runs
// that share a registry, as a figure's runs do: every counter, and every
// histogram's count and bucket counts, is the sum of what each run
// records alone, and every gauge holds the last run's value (or the
// first's, where the last registers none). The two runs register every
// count the models keep as tallies: k+m groups under an OSS fault plan,
// then a write-back tier whose node crash tears a drain. Histogram sums
// are floats added in a different order, so only counts are compared.
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
	shared := obs.NewRegistry()
	var alone [2]obs.Snapshot
	for i, run := range runs {
		run(shared)
		reg := obs.NewRegistry()
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
}
