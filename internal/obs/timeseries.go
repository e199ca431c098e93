//lint:allowfile goroutine -- sanctioned site: time series are recorded from parallel shard runners under a mutex

package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"sync"
)

// TimeSeries records a value over simulated time in fixed windows: each
// window of width WindowSec keeps the last value observed inside it
// (last-value-wins, like a gauge sampled on a grid). Windows with no
// observation are simply absent, so a series costs memory proportional
// to the samples actually taken, not to elapsed sim time.
//
// Series are opt-in: Registry.TimeSeries returns nil until
// EnableTimeSeries arms the registry with a window width, so default
// runs pay nothing and serialize unchanged snapshots.
type TimeSeries struct {
	mu     sync.Mutex
	window float64
	wins   []int64 // ascending window indices
	vals   []float64
}

// Observe records v for the window containing sim-time tSec (seconds),
// the one numbered floor(tSec / WindowSec), as ObserveWindow does.
// No-op on a nil receiver.
func (ts *TimeSeries) Observe(tSec, v float64) {
	if ts == nil {
		return
	}
	ts.ObserveWindow(int64(tSec/ts.window), v)
}

// ObserveWindow records v for window w, the one starting at w ×
// WindowSec. A sampler that ticks on the window grid files its k-th
// tick under window k: its accumulated tick times can fall a rounding
// error below a grid point, where dividing would file a tick one
// window early, over the tick before it. Within one window the last
// observation wins. Windows must arrive in non-decreasing order, which
// simulated time guarantees; a stale window is dropped rather than
// reordered. No-op on a nil receiver.
func (ts *TimeSeries) ObserveWindow(w int64, v float64) {
	if ts == nil {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if n := len(ts.wins); n > 0 {
		switch last := ts.wins[n-1]; {
		case w == last:
			ts.vals[n-1] = v
			return
		case w < last:
			return
		}
	}
	ts.wins = append(ts.wins, w)
	ts.vals = append(ts.vals, v)
}

// TimeSeriesSnapshot is the serialized state of one series: parallel
// arrays of window-start times and values.
type TimeSeriesSnapshot struct {
	WindowSec float64   `json:"window_s"`
	Times     []float64 `json:"t_s"`
	Values    []float64 `json:"values"`
}

func (ts *TimeSeries) snapshot() TimeSeriesSnapshot {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	s := TimeSeriesSnapshot{
		WindowSec: ts.window,
		Times:     make([]float64, len(ts.wins)),
		Values:    make([]float64, len(ts.vals)),
	}
	for i, w := range ts.wins {
		s.Times[i] = finite(float64(w) * ts.window)
		s.Values[i] = finite(ts.vals[i])
	}
	return s
}

// EnableTimeSeries arms the registry for sim-time series with the given
// window width in seconds; until called, TimeSeries returns nil. The
// first call wins — window width is a per-run constant so every series
// shares one time grid. No-op on a nil registry or non-positive window.
func (r *Registry) EnableTimeSeries(windowSec float64) {
	if r == nil || windowSec <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seriesWindow == 0 {
		r.seriesWindow = windowSec
	}
}

// SeriesWindow returns the armed series window in seconds, or 0 when
// series are disabled (including on a nil registry). Probe sites use
// this to skip sampling setup entirely when off.
func (r *Registry) SeriesWindow() float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seriesWindow
}

// TimeSeries returns a new, empty series registered under name. It
// replaces an earlier registration of the name, so a series describes
// the last run that registered it, as a gauge holds the last run's
// value. Returns nil — a valid no-op instrument — on a nil registry or
// when EnableTimeSeries has not armed a window.
func (r *Registry) TimeSeries(name string) *TimeSeries {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seriesWindow == 0 {
		return nil
	}
	ts := &TimeSeries{window: r.seriesWindow}
	r.series[name] = ts
	return ts
}

// WriteSeriesCSV serializes every armed series as one wide CSV table:
// the header is t_s followed by the series names in sorted order, and
// each row is one populated window. A window missing from a series
// leaves that cell empty. Output is byte-stable for identical runs —
// names sort, windows ascend, and floats format with strconv's shortest
// round-trip form.
func (r *Registry) WriteSeriesCSV(w io.Writer) error {
	snaps := map[string]TimeSeriesSnapshot{}
	if r != nil {
		r.mu.Lock()
		series := make(map[string]*TimeSeries, len(r.series))
		for k, v := range r.series {
			series[k] = v
		}
		r.mu.Unlock()
		for k, ts := range series {
			snaps[k] = ts.snapshot()
		}
	}
	names := make([]string, 0, len(snaps))
	for k := range snaps {
		names = append(names, k)
	}
	sort.Strings(names)

	// Union of populated window times across all series.
	timeSet := map[float64]bool{}
	for _, name := range names {
		for _, t := range snaps[name].Times {
			timeSet[t] = true
		}
	}
	times := make([]float64, 0, len(timeSet))
	for t := range timeSet {
		times = append(times, t)
	}
	sort.Float64s(times)

	bw := bufio.NewWriter(w)
	bw.WriteString("t_s")
	for _, name := range names {
		bw.WriteByte(',')
		bw.WriteString(name)
	}
	bw.WriteByte('\n')

	// Per-series cursor into its (ascending) time array.
	cursor := make([]int, len(names))
	for _, t := range times {
		bw.WriteString(strconv.FormatFloat(t, 'g', -1, 64))
		for i, name := range names {
			s := snaps[name]
			bw.WriteByte(',')
			if c := cursor[i]; c < len(s.Times) && s.Times[c] == t {
				bw.WriteString(strconv.FormatFloat(s.Values[c], 'g', -1, 64))
				cursor[i]++
			}
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
