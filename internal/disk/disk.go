// Package disk models a mechanical disk drive: positioning time (seek plus
// rotational latency) followed by media transfer. The model captures the
// single most important fact driving every result in the PDSI report — the
// enormous gap between sequential streaming bandwidth and small random I/O
// throughput (~100 IOPS for a 2006-era drive) — without simulating track
// geometry in detail.
package disk

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Geometry describes a drive. The zero value is invalid; use a preset or
// fill every field.
type Geometry struct {
	Name string

	// CapacityBytes is the addressable capacity.
	CapacityBytes int64

	// SeqBandwidth is sustained media transfer rate in bytes/second.
	SeqBandwidth float64

	// FullSeek is the full-stroke seek time in seconds; TrackSeek is the
	// track-to-track (minimum) seek.
	FullSeek  float64
	TrackSeek float64

	// RPM sets rotational latency (average is half a revolution).
	RPM float64
}

// AvgRotation returns the average rotational latency (half a revolution).
func (g Geometry) AvgRotation() float64 {
	if g.RPM <= 0 {
		return 0
	}
	return 0.5 * 60.0 / g.RPM
}

// Enterprise2006 is a 10K RPM FC/SCSI-class drive of the report's era.
func Enterprise2006() Geometry {
	return Geometry{
		Name:          "enterprise-10k-2006",
		CapacityBytes: 300e9,
		SeqBandwidth:  80e6,
		FullSeek:      8e-3,
		TrackSeek:     0.4e-3,
		RPM:           10000,
	}
}

// Disk is a stateful drive: it remembers the head position so that
// sequential access streams at full bandwidth while scattered access pays
// positioning costs. Disk computes service times; queueing is layered on
// top with a sim.Server.
type Disk struct {
	Geom Geometry

	// headPos is the byte offset the head is parked after the last I/O.
	headPos int64

	stats Stats
}

// Stats decomposes accumulated service time into its mechanical parts.
// The seek/rotation vs transfer split is the single most diagnostic
// number in the simulator: a workload whose positioning time dominates
// its transfer time is the pathology PLFS exists to remove.
type Stats struct {
	// Accesses counts I/Os; Positioned counts the subset that paid a seek
	// plus rotational latency (i.e. were not sequential with the previous
	// I/O).
	Accesses   int64
	Positioned int64

	// SeekSec, RotationSec, and TransferSec partition total service time.
	SeekSec     float64
	RotationSec float64
	TransferSec float64
}

// New returns a Disk with the head at offset 0.
func New(g Geometry) *Disk {
	if g.CapacityBytes <= 0 || g.SeqBandwidth <= 0 {
		panic(fmt.Sprintf("disk: invalid geometry %+v", g))
	}
	return &Disk{Geom: g}
}

// seekTime models seek as track-to-track cost plus a square-root curve to
// full stroke, the standard first-order approximation.
func (d *Disk) seekTime(from, to int64) float64 {
	if from == to {
		return 0
	}
	dist := math.Abs(float64(to - from))
	frac := dist / float64(d.Geom.CapacityBytes)
	if frac > 1 {
		frac = 1
	}
	return d.Geom.TrackSeek + (d.Geom.FullSeek-d.Geom.TrackSeek)*math.Sqrt(frac)
}

// AccessDetail decomposes one I/O's service time into its mechanical
// parts — the per-operation analogue of the accumulated Stats split.
// Latency-attribution probes feed these into per-stage quantiles.
type AccessDetail struct {
	SeekSec     float64
	RotationSec float64
	TransferSec float64
}

// Access returns the service time for an I/O of size bytes at offset and
// advances the head. Reads and writes are symmetric in this model.
func (d *Disk) Access(offset, size int64) sim.Time {
	t, _ := d.AccessTimed(offset, size)
	return t
}

// AccessTimed is Access plus the mechanical decomposition of that one
// I/O's service time. It allocates nothing, so probed hot paths can call
// it unconditionally.
func (d *Disk) AccessTimed(offset, size int64) (sim.Time, AccessDetail) {
	var det AccessDetail
	if size <= 0 {
		return 0, det
	}
	if offset != d.headPos {
		det.SeekSec = d.seekTime(d.headPos, offset)
		det.RotationSec = d.Geom.AvgRotation()
		d.stats.Positioned++
		d.stats.SeekSec += det.SeekSec
		d.stats.RotationSec += det.RotationSec
	}
	det.TransferSec = float64(size) / d.Geom.SeqBandwidth
	d.stats.Accesses++
	d.stats.TransferSec += det.TransferSec
	d.headPos = offset + size
	return sim.Time(det.SeekSec + det.RotationSec + det.TransferSec), det
}

// Stats returns the accumulated service-time decomposition.
func (d *Disk) Stats() Stats { return d.stats }

// SeqTime returns the pure streaming time for size bytes, ignoring head
// state (a convenience for back-of-envelope comparisons).
func (d *Disk) SeqTime(size int64) sim.Time {
	return sim.Time(float64(size) / d.Geom.SeqBandwidth)
}

// RandomIOPS estimates steady-state random IOPS at the given request size,
// assuming every request pays an average seek (one third of full stroke
// distance) plus average rotation.
func (d *Disk) RandomIOPS(size int64) float64 {
	avgSeek := d.Geom.TrackSeek + (d.Geom.FullSeek-d.Geom.TrackSeek)*math.Sqrt(1.0/3.0)
	per := avgSeek + d.Geom.AvgRotation() + float64(size)/d.Geom.SeqBandwidth
	return 1 / per
}
