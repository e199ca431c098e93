package workload

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

func rebuildSpec() RebuildSpec {
	return RebuildSpec{
		Pods:    4,
		Servers: 12,
		Red:     pfs.Redundancy{K: 4, M: 1, UnitBytes: 256 << 10, ChunkBytes: 64 << 10},
		Faults: failure.OSSFaultSpec{
			MTBF:     30,
			Shape:    1,
			Downtime: 0, // permanent: overlaps accumulate
			Horizon:  4,
			Bursts:   failure.BurstSpec{MTBB: 2, Size: 3},
		},
		Seed:         7,
		Rounds:       4,
		ComputeTime:  sim.Time(0.25),
		WriteBytes:   1 << 20,
		MaxRetries:   3,
		RetryBackoff: sim.Time(5e-3),
	}
}

// TestRunRebuildShardCountInvariant: the storm's result, snapshot, and
// time series are identical at GOMAXPROCS 1 and 3, that is on 1 and 3
// shards, with series off and on.
func TestRunRebuildShardCountInvariant(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	run := func(procs int, series bool) (RebuildResult, string, string) {
		runtime.GOMAXPROCS(procs)
		reg := obs.NewRegistry()
		if series {
			reg.EnableTimeSeries(0.1)
		}
		res := RunRebuild(rebuildSpec(), reg)
		var snap, csv bytes.Buffer
		if err := reg.WriteJSON(&snap); err != nil {
			t.Fatal(err)
		}
		if err := reg.WriteSeriesCSV(&csv); err != nil {
			t.Fatal(err)
		}
		return res, snap.String(), csv.String()
	}
	for _, series := range []bool{false, true} {
		r1, s1, c1 := run(1, series)
		r3, s3, c3 := run(3, series)
		if s1 != s3 {
			t.Fatalf("series=%v: metrics snapshot differs between 1 and 3 shards", series)
		}
		if c1 != c3 {
			t.Fatalf("series=%v: series CSV differs between 1 and 3 shards", series)
		}
		if series && c1 == "" {
			t.Fatal("series-on run recorded no series")
		}
		if r1 != r3 {
			t.Fatalf("series=%v: results differ across shard counts:\n1: %+v\n3: %+v", series, r1, r3)
		}
	}
}

func TestRunRebuildStormAccounting(t *testing.T) {
	res := RunRebuild(rebuildSpec(), obs.NewRegistry())
	if res.Drives != 48 || res.Groups == 0 {
		t.Fatalf("population not realized: %+v", res)
	}
	if res.Crashes == 0 || res.BurstEvents == 0 {
		t.Fatalf("fault schedule never fired: crashes=%d bursts=%d", res.Crashes, res.BurstEvents)
	}
	if res.Rebuild.Started == 0 {
		t.Fatal("no rebuild launched despite crashes")
	}
	if res.Ops == 0 || res.WriteP99 <= 0 {
		t.Fatalf("foreground starved: ops=%d writeP99=%v", res.Ops, res.WriteP99)
	}
	// m=1 under permanent crashes plus size-3 bursts over 4 seconds: the
	// draw at this seed loses groups, and every loss is typed and counted.
	if res.Loss.Groups == 0 || res.PodsWithLoss == 0 {
		t.Fatalf("expected group losses at this seed: %+v", res.Loss)
	}
	if res.GroupLossFrac <= 0 || res.GroupLossFrac > 1 {
		t.Fatalf("loss fraction %v out of range", res.GroupLossFrac)
	}
	wantFrac := float64(res.Loss.Groups) / float64(res.Groups)
	if res.GroupLossFrac != wantFrac {
		t.Fatalf("GroupLossFrac = %v, want %v", res.GroupLossFrac, wantFrac)
	}
}

func TestRunRebuildDataLossOpsTyped(t *testing.T) {
	// A tiny pod where every server but one dies at once: the foreground
	// read after the storm must be dropped as a typed data-loss op, not
	// retried forever and not silently completed.
	spec := rebuildSpec()
	spec.Pods = 1
	spec.Servers = 7
	spec.Red = pfs.Redundancy{K: 4, M: 1, UnitBytes: 256 << 10, ChunkBytes: 64 << 10}
	spec.Faults = failure.OSSFaultSpec{
		MTBF:     0.5, // every drive dies almost immediately, permanently
		Shape:    1,
		Downtime: 0,
		Horizon:  60,
	}
	spec.Rounds = 6
	spec.ComputeTime = sim.Time(2)
	res := RunRebuild(spec, nil)
	if res.DataLossOps == 0 {
		t.Fatalf("no foreground op hit typed data loss under total failure: %+v", res)
	}
	if res.Loss.Reads == 0 || res.Loss.Events == 0 {
		t.Fatalf("loss accounting empty: %+v", res.Loss)
	}
}

// TestRunRebuildOpTimersSpanRetries: a foreground op's stage timer
// spans all of its attempts, as the result's latency does, so the write
// p99 the report shows is the result's and a retried write charges its
// backoff.
func TestRunRebuildOpTimersSpanRetries(t *testing.T) {
	spec := rebuildSpec()
	spec.Pods = 1
	reg := obs.NewRegistry()
	reg.EnableOpTimers()
	res := RunRebuild(spec, reg)
	q := reg.Snapshot().Quantiles
	if got := q["pfs.write.latency_s"].P99; got != res.WriteP99 {
		t.Errorf("pfs.write.latency_s p99 = %v, want the result's WriteP99 %v", got, res.WriteP99)
	}
	if q["pfs.write.stage.backoff_s"].Sum == 0 {
		t.Errorf("no write charged backoff over %d retries", res.Retries)
	}
}

func BenchmarkRunRebuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec := rebuildSpec()
		spec.Pods = 2
		spec.Rounds = 2
		RunRebuild(spec, nil)
	}
}
