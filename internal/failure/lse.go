package failure

import (
	"fmt"
	"math/rand"

	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/stats"
)

// This file draws silent-corruption schedules — the latent-sector-error
// and bit-rot arrivals that the report's reliability studies (and the
// DiskReduce RAID-in-HDFS work) treat as the second failure channel next
// to whole-drive replacement. Where DrawOSSFaults makes servers die
// loudly, DrawLSE makes their drives lie quietly: each drive accumulates
// corrupted extents over the run, discovered only when the integrity
// layer in internal/pfs reads or scrubs them.

// Every event is sector-aligned and a whole number of sectors long; a
// torn write spans 2 to tornSectors sectors, uniformly.
const (
	sectorSize  = 512
	tornSectors = 8
)

// LSESpec parameterizes a latent-sector-error draw for a set of drives.
type LSESpec struct {
	// Disks is the number of drives (one event stream each).
	Disks int

	// CapacityBytes bounds corrupted offsets: events land uniformly in
	// [0, CapacityBytes), sector-aligned.
	CapacityBytes int64

	// MTBC is each drive's mean time between corruption events in
	// seconds — the per-drive LSE arrival rate inverted.
	MTBC float64

	// Shape is the Weibull shape of interarrivals: 1.0 is Poisson, <1
	// gives the bursty, spatially-correlated behaviour the LSE field
	// study observed.
	Shape float64

	// TornFraction is the probability an event is a torn write spanning
	// several sectors instead of a single-sector media error.
	TornFraction float64

	// Horizon bounds the draw: events arrive in [0, Horizon) seconds.
	Horizon float64
}

func (s LSESpec) validate() error {
	if s.Disks < 1 || s.CapacityBytes <= 0 || s.MTBC <= 0 || s.Shape <= 0 || s.Horizon <= 0 {
		return fmt.Errorf("failure: invalid LSE spec %+v", s)
	}
	if s.TornFraction < 0 || s.TornFraction > 1 {
		return fmt.Errorf("failure: LSE torn fraction %v outside [0,1]", s.TornFraction)
	}
	return nil
}

// DrawLSE draws one deterministic corruption schedule per drive: the same
// spec and seed always produce the same events, and drive i draws from
// its own stream, PCG stream (seed, i), so adding a drive never perturbs
// the others. Feed each slice to disk.NewCorruptor.
func DrawLSE(spec LSESpec, seed int64) [][]disk.CorruptionEvent {
	if err := spec.validate(); err != nil {
		panic(err)
	}
	sectors := spec.CapacityBytes / sectorSize
	if sectors < 1 {
		sectors = 1
	}
	scale := spec.MTBC / stats.Weibull{Shape: spec.Shape, Scale: 1}.Mean()
	d := stats.Weibull{Shape: spec.Shape, Scale: scale}
	out := make([][]disk.CorruptionEvent, spec.Disks)
	var st stats.Stream // reseeded per drive
	r := rand.New(&st)
	for i := 0; i < spec.Disks; i++ {
		st.Reset(seed, uint64(i))
		var evs []disk.CorruptionEvent
		for t := d.Sample(r); t < spec.Horizon; t += d.Sample(r) {
			ev := disk.CorruptionEvent{
				Offset: r.Int63n(sectors) * sectorSize,
				Length: sectorSize,
				At:     sim.Time(t),
				Mode:   disk.MediaError,
			}
			if r.Float64() < spec.TornFraction {
				ev.Mode = disk.TornWrite
				ev.Length = sectorSize * int64(2+r.Intn(tornSectors-1))
			}
			if ev.Offset+ev.Length > spec.CapacityBytes {
				ev.Offset = spec.CapacityBytes - ev.Length
			}
			evs = append(evs, ev)
		}
		out[i] = evs
	}
	return out
}

// ExpectedLSECount returns the analytic mean number of corruption events
// per drive over the horizon — the expectation the integrity experiment
// in cmd/pdsirepro compares its injected counts against.
func (s LSESpec) ExpectedLSECount() float64 {
	if s.MTBC <= 0 {
		return 0
	}
	return s.Horizon / s.MTBC
}
