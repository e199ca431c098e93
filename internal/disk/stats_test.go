package disk

import (
	"math"
	"testing"
)

func TestStatsSplitSequentialStream(t *testing.T) {
	d := New(Enterprise2006())
	// Head starts at 0; the first access at 0 is sequential, and each
	// subsequent access continues where the last ended.
	var off int64
	for i := 0; i < 10; i++ {
		d.Access(off, 1<<20)
		off += 1 << 20
	}
	s := d.Stats()
	if s.Accesses != 10 || s.Positioned != 0 {
		t.Fatalf("accesses %d positioned %d, want 10/0", s.Accesses, s.Positioned)
	}
	if s.SeekSec != 0 || s.RotationSec != 0 {
		t.Fatalf("sequential stream paid positioning: seek %v rot %v", s.SeekSec, s.RotationSec)
	}
	wantTransfer := float64(10<<20) / d.Geom.SeqBandwidth
	if math.Abs(s.TransferSec-wantTransfer) > 1e-12 {
		t.Fatalf("transfer = %v, want %v", s.TransferSec, wantTransfer)
	}
}

func TestStatsSplitScatteredAccess(t *testing.T) {
	d := New(Enterprise2006())
	// Jump around: every access after the first lands away from the head.
	offsets := []int64{10 << 20, 500 << 20, 1 << 30, 40 << 20}
	for _, off := range offsets {
		d.Access(off, 4096)
	}
	s := d.Stats()
	if s.Accesses != 4 || s.Positioned != 4 {
		t.Fatalf("accesses %d positioned %d, want 4/4", s.Accesses, s.Positioned)
	}
	if s.SeekSec <= 0 || s.RotationSec <= 0 {
		t.Fatalf("scattered access free: seek %v rot %v", s.SeekSec, s.RotationSec)
	}
	// Four average rotational latencies, exactly.
	wantRot := 4 * d.Geom.AvgRotation()
	if math.Abs(s.RotationSec-wantRot) > 1e-12 {
		t.Fatalf("rotation = %v, want %v", s.RotationSec, wantRot)
	}
	// For small random I/O, positioning must dominate transfer — the
	// pathology the report (and PLFS) is about.
	if s.SeekSec+s.RotationSec < 10*s.TransferSec {
		t.Fatalf("positioning %v should dwarf transfer %v",
			s.SeekSec+s.RotationSec, s.TransferSec)
	}
}

func TestStatsAccountAllServiceTime(t *testing.T) {
	d := New(nearline2006)
	var total float64
	for _, off := range []int64{0, 1 << 30, 1<<30 + 4096, 77 << 20} {
		total += float64(d.Access(off, 4096))
	}
	s := d.Stats()
	if got := s.SeekSec + s.RotationSec + s.TransferSec; math.Abs(got-total) > 1e-12 {
		t.Fatalf("stats sum %v != returned service time sum %v", got, total)
	}
}
