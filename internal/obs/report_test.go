package obs

import (
	"bytes"
	"strings"
	"testing"
)

// reportSnapshot builds a small analytics-enabled snapshot by driving
// real instruments, so the test exercises the same path as a run.
func reportSnapshot() Snapshot {
	r := NewRegistry()
	r.EnableOpTimers()
	r.EnableTimeSeries(0.5)
	set := r.OpTimerSet("pfs.write")
	for i := 0; i < 10; i++ {
		ot := set.Start(float64(i), nil)
		ot.Add(StageNet, 0.010)
		ot.Add(StageDiskTransfer, 0.020)
		set.Observe(ot, float64(i)+0.040)
	}
	r.Gauge("pfs.oss00.disk.utilization").Set(0.75)
	r.Gauge("pfs.oss01.disk.utilization").Set(0.25)
	ts := r.TimeSeries("pfs.ops.inflight")
	for i := 0; i < 8; i++ {
		ts.Observe(float64(i)*0.5, float64(i%4))
	}
	return r.Snapshot()
}

func TestWriteReportSections(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteReport(&buf, reportSnapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"== Latency SLOs",
		"pfs.write.latency_s",
		"== Stage attribution",
		"disk_transfer",
		"residual",
		"== Top bottlenecks",
		"pfs.write      disk_transfer",
		"== Busiest servers",
		"pfs.oss00.disk.utilization",
		"== Timelines",
		"pfs.ops.inflight",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	// Total latency is 0.040 per op; attribution covers 0.030 of it.
	if !strings.Contains(out, "0.400000 s total latency") {
		t.Fatalf("report missing total latency line:\n%s", out)
	}
}

func TestWriteReportDeterministic(t *testing.T) {
	s := reportSnapshot()
	var a, b bytes.Buffer
	if err := WriteReport(&a, s); err != nil {
		t.Fatal(err)
	}
	if err := WriteReport(&b, s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two renders of the same snapshot differ")
	}
}

func TestWriteReportEmptySnapshot(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteReport(&buf, Snapshot{}); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "(none)"); n != 5 {
		t.Fatalf("empty report has %d (none) sections, want 5:\n%s", n, buf.String())
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline(nil, 10); got != "" {
		t.Fatalf("empty sparkline = %q", got)
	}
	got := sparkline([]float64{0, 1}, 10)
	if got != "▁█" {
		t.Fatalf("sparkline = %q, want low/high pair", got)
	}
	// Constant series renders all-low, not a divide-by-zero artifact.
	if got := sparkline([]float64{5, 5, 5}, 10); got != "▁▁▁" {
		t.Fatalf("constant sparkline = %q", got)
	}
	// Long series resample down to the requested width.
	long := make([]float64, 600)
	for i := range long {
		long[i] = float64(i)
	}
	if got := sparkline(long, 60); len([]rune(got)) != 60 {
		t.Fatalf("resampled sparkline has %d cells, want 60", len([]rune(got)))
	}
}
