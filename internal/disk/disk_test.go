package disk

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

func TestSequentialAccessHasNoPositioning(t *testing.T) {
	d := New(Enterprise2006())
	const chunk = 1 << 20
	first := d.Access(0, chunk)
	second := d.Access(chunk, chunk) // head is already there
	want := d.SeqTime(chunk)
	if second != want {
		t.Fatalf("sequential access = %v, want pure transfer %v", second, want)
	}
	if first != want {
		t.Fatalf("first access from parked head at 0 = %v, want %v", first, want)
	}
}

func TestRandomAccessPaysSeekAndRotation(t *testing.T) {
	d := New(Enterprise2006())
	d.Access(0, 4096)
	far := d.Geom.CapacityBytes / 2
	got := d.Access(far, 4096)
	minPositioning := sim.Time(d.Geom.TrackSeek + d.Geom.AvgRotation())
	if got <= minPositioning {
		t.Fatalf("random access %v should exceed positioning floor %v", got, minPositioning)
	}
}

func TestSeekMonotoneInDistance(t *testing.T) {
	d := New(Enterprise2006())
	prev := 0.0
	for _, frac := range []float64{0.001, 0.01, 0.1, 0.5, 1.0} {
		to := int64(frac * float64(d.Geom.CapacityBytes))
		s := d.seekTime(0, to)
		if s <= prev {
			t.Fatalf("seek(%v) = %v not monotone (prev %v)", frac, s, prev)
		}
		prev = s
	}
	if s := d.seekTime(100, 100); s != 0 {
		t.Fatalf("zero-distance seek = %v, want 0", s)
	}
	full := d.seekTime(0, d.Geom.CapacityBytes)
	if full > d.Geom.FullSeek+1e-12 {
		t.Fatalf("full-stroke seek %v exceeds FullSeek %v", full, d.Geom.FullSeek)
	}
}

// nearline2006 is a 7200 RPM SATA capacity drive of the report's era.
var nearline2006 = Geometry{
	Name:          "nearline-7200-2006",
	CapacityBytes: 750e9,
	SeqBandwidth:  70e6,
	FullSeek:      12e-3,
	TrackSeek:     0.8e-3,
	RPM:           7200,
}

func TestRandomIOPSMatchesEraDrives(t *testing.T) {
	// The report repeatedly quotes "closer to 100 IOPS" for magnetic disks.
	iops := New(Enterprise2006()).RandomIOPS(4096)
	if iops < 80 || iops > 180 {
		t.Fatalf("enterprise random 4K IOPS = %.0f, want O(100)", iops)
	}
	nl := New(nearline2006).RandomIOPS(4096)
	if nl >= iops {
		t.Fatalf("nearline IOPS %.0f should trail enterprise %.0f", nl, iops)
	}
}

func TestSequentialVsRandomGap(t *testing.T) {
	// Streaming bandwidth should exceed random 4K throughput by >100x:
	// this gap is what PLFS exploits.
	d := New(Enterprise2006())
	seqBytesPerSec := d.Geom.SeqBandwidth
	randBytesPerSec := d.RandomIOPS(4096) * 4096
	if ratio := seqBytesPerSec / randBytesPerSec; ratio < 100 {
		t.Fatalf("seq/random bandwidth ratio = %.0f, want > 100", ratio)
	}
}

func TestAccessAdvancesHead(t *testing.T) {
	d := New(nearline2006)
	d.Access(1000, 500)
	if d.headPos != 1500 {
		t.Fatalf("head at %d, want 1500", d.headPos)
	}
}

func TestZeroSizeAccessFree(t *testing.T) {
	d := New(Enterprise2006())
	if got := d.Access(12345, 0); got != 0 {
		t.Fatalf("zero-size access = %v, want 0", got)
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with zero geometry did not panic")
		}
	}()
	New(Geometry{})
}

func TestWorkloadTimeDeterminism(t *testing.T) {
	run := func() sim.Time {
		d := New(Enterprise2006())
		r := rand.New(rand.NewSource(7))
		var total sim.Time
		for i := 0; i < 1000; i++ {
			off := r.Int63n(d.Geom.CapacityBytes - 8192)
			total += d.Access(off, 8192)
		}
		return total
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("runs differ: %v vs %v", a, b)
	}
}
