package obs

import (
	"bytes"
	"testing"
)

func TestTimeSeriesDisabledByDefault(t *testing.T) {
	r := NewRegistry()
	if r.SeriesWindow() != 0 {
		t.Fatalf("fresh registry SeriesWindow = %v", r.SeriesWindow())
	}
	if ts := r.TimeSeries("pkg.util.series"); ts != nil {
		t.Fatal("TimeSeries returned non-nil before EnableTimeSeries")
	}
	var nilTS *TimeSeries
	nilTS.Observe(0, 1) // must not panic
}

func TestTimeSeriesWindowingLastWins(t *testing.T) {
	r := NewRegistry()
	r.EnableTimeSeries(0.5)
	r.EnableTimeSeries(0.1) // first call wins
	if r.SeriesWindow() != 0.5 {
		t.Fatalf("SeriesWindow = %v, want 0.5", r.SeriesWindow())
	}
	ts := r.TimeSeries("pkg.util.series")
	ts.Observe(0.1, 1)  // window 0
	ts.Observe(0.4, 2)  // window 0 again: last wins
	ts.Observe(1.2, 3)  // window 2 (window 1 skipped)
	ts.Observe(0.05, 9) // stale window: dropped
	s := r.Snapshot().Series["pkg.util.series"]
	if s.WindowSec != 0.5 {
		t.Fatalf("WindowSec = %v", s.WindowSec)
	}
	wantT := []float64{0, 1}
	wantV := []float64{2, 3}
	if len(s.Times) != 2 || s.Times[0] != wantT[0] || s.Times[1] != wantT[1] ||
		s.Values[0] != wantV[0] || s.Values[1] != wantV[1] {
		t.Fatalf("series = %v @ %v, want %v @ %v", s.Values, s.Times, wantV, wantT)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	r := NewRegistry()
	r.EnableTimeSeries(1)
	a := r.TimeSeries("pkg.alpha.series")
	b := r.TimeSeries("pkg.beta.series")
	a.Observe(0, 1)
	a.Observe(2, 3)
	b.Observe(1, 10)
	b.Observe(2, 20)
	var buf bytes.Buffer
	if err := r.WriteSeriesCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "t_s,pkg.alpha.series,pkg.beta.series\n" +
		"0,1,\n" +
		"1,,10\n" +
		"2,3,20\n"
	if buf.String() != want {
		t.Fatalf("CSV = %q, want %q", buf.String(), want)
	}

	// Identical registries render identical bytes.
	var buf2 bytes.Buffer
	if err := r.WriteSeriesCSV(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("two renders of the same registry differ")
	}
}

func TestWriteSeriesCSVNilRegistry(t *testing.T) {
	var r *Registry
	var buf bytes.Buffer
	if err := r.WriteSeriesCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "t_s\n" {
		t.Fatalf("nil registry CSV = %q", buf.String())
	}
}
