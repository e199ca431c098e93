package workload

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/obs"
)

func scaleFixtureSpec(shards int) ScaleSpec {
	return ScaleSpec{
		Pods:            6,
		RanksPerPod:     4,
		ServersPerPod:   3,
		Rounds:          3,
		BytesPerRank:    192 << 10,
		ComputeTime:     0.5,
		InterPodLatency: 5e-6,
		Shards:          shards,
	}
}

func runScaleFixture(t *testing.T, shards int, series bool) (snap, csv []byte, res ScaleResult) {
	t.Helper()
	reg := obs.NewRegistry()
	if series {
		reg.EnableTimeSeries(0.1)
	}
	res = RunScale(scaleFixtureSpec(shards), reg)
	var sb, cb bytes.Buffer
	if err := reg.WriteJSON(&sb); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := reg.WriteSeriesCSV(&cb); err != nil {
		t.Fatalf("series: %v", err)
	}
	return sb.Bytes(), cb.Bytes(), res
}

// TestScaleByteIdenticalAcrossShardsAndProcs is the scale experiment's
// determinism contract: the registry snapshot, the series CSV, and
// every logical result field are byte-identical for any shard count at
// any GOMAXPROCS, with series off and on.
func TestScaleByteIdenticalAcrossShardsAndProcs(t *testing.T) {
	for _, series := range []bool{false, true} {
		refSnap, refCSV, refRes := runScaleFixture(t, 1, series)
		if refRes.WallClock <= 0 {
			t.Fatalf("reference run did not advance: wall=%v", refRes.WallClock)
		}
		if got := len(refRes.RoundElapsed); got != refRes.Rounds {
			t.Fatalf("RoundElapsed has %d entries, want %d", got, refRes.Rounds)
		}
		if series && len(refCSV) == 0 {
			t.Fatal("series-on run recorded no series")
		}
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			for _, shards := range []int{1, 2, 8} {
				snap, csv, res := runScaleFixture(t, shards, series)
				if !bytes.Equal(snap, refSnap) {
					t.Errorf("series=%v shards=%d procs=%d: snapshot differs from shards=1 reference", series, shards, procs)
				}
				if !bytes.Equal(csv, refCSV) {
					t.Errorf("series=%v shards=%d procs=%d: series CSV differs from shards=1 reference", series, shards, procs)
				}
				if res.WallClock != refRes.WallClock {
					t.Errorf("series=%v shards=%d procs=%d: wall %v != %v", series, shards, procs, res.WallClock, refRes.WallClock)
				}
				if res.Events != refRes.Events {
					t.Errorf("series=%v shards=%d procs=%d: events %d != %d", series, shards, procs, res.Events, refRes.Events)
				}
				for i := range res.RoundElapsed {
					if res.RoundElapsed[i] != refRes.RoundElapsed[i] {
						t.Errorf("series=%v shards=%d procs=%d: round %d elapsed %v != %v",
							series, shards, procs, i, res.RoundElapsed[i], refRes.RoundElapsed[i])
					}
				}
			}
			runtime.GOMAXPROCS(prev)
		}
	}
}

// TestScaleRoundsBarrier checks the global round barrier: each round's
// coordinator-observed duration covers at least two interconnect
// crossings plus the compute phase.
func TestScaleRoundsBarrier(t *testing.T) {
	_, _, res := runScaleFixture(t, 2, false)
	floor := scaleFixtureSpec(2).ComputeTime + 2*scaleFixtureSpec(2).InterPodLatency
	for i, d := range res.RoundElapsed {
		if d < floor {
			t.Errorf("round %d elapsed %v below floor %v", i, d, floor)
		}
	}
	if res.Ranks != 24 || res.Servers != 18 {
		t.Errorf("totals: ranks=%d servers=%d", res.Ranks, res.Servers)
	}
}

// TestScaleSpecValidate exercises the rejection paths.
func TestScaleSpecValidate(t *testing.T) {
	good := scaleFixtureSpec(2)
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	bad := []ScaleSpec{}
	for _, mut := range []func(*ScaleSpec){
		func(s *ScaleSpec) { s.Pods = 0 },
		func(s *ScaleSpec) { s.RanksPerPod = 0 },
		func(s *ScaleSpec) { s.ServersPerPod = 0 },
		func(s *ScaleSpec) { s.Rounds = 0 },
		func(s *ScaleSpec) { s.BytesPerRank = 0 },
		func(s *ScaleSpec) { s.ComputeTime = -1 },
		func(s *ScaleSpec) { s.InterPodLatency = 0 },
		func(s *ScaleSpec) { s.Shards = 0 },
	} {
		s := good
		mut(&s)
		bad = append(bad, s)
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

// BenchmarkRunScale runs the scale fixture on two shards: the pfs data
// path under many pods plus the cluster's windows and cross-shard
// sends.
func BenchmarkRunScale(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RunScale(scaleFixtureSpec(2), nil)
	}
}
