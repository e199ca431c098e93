package disk

import (
	"testing"

	"repro/internal/sim"
)

func TestNilCorruptorIsInert(t *testing.T) {
	var c *Corruptor
	if c.FaultIn(0, 1<<30, 1e9) {
		t.Fatal("nil corruptor reported a fault")
	}
	if c.Repair(0, 1<<30, 1e9) != 0 || c.Unrepaired(1e9) != 0 {
		t.Fatal("nil corruptor not inert")
	}
}

func TestCorruptorArrivalAndOverlap(t *testing.T) {
	c := NewCorruptor([]CorruptionEvent{
		{Offset: 4096, Length: 512, At: 10, Mode: MediaError},
		{Offset: 100, Length: 1024, At: 20, Mode: TornWrite},
	})
	// Before arrival: clean.
	if c.FaultIn(4096, 512, 5) {
		t.Fatal("fault reported before arrival")
	}
	// After arrival: overlapping reads hit, disjoint reads do not.
	if !c.FaultIn(4096, 512, 10) {
		t.Fatal("exact-overlap read missed the fault")
	}
	if !c.FaultIn(0, 4097, 15) {
		t.Fatal("partial-overlap read missed the fault")
	}
	if c.FaultIn(4608, 512, 15) {
		t.Fatal("adjacent read falsely hit")
	}
	// Second event arrives later.
	if c.FaultIn(100, 10, 15) {
		t.Fatal("torn write visible before arrival")
	}
	if !c.FaultIn(100, 10, 25) {
		t.Fatal("torn write missed after arrival")
	}
	if got := c.Unrepaired(25); got != 2 {
		t.Fatalf("Unrepaired = %d, want 2", got)
	}
}

func TestCorruptorRepairClearsFaults(t *testing.T) {
	c := NewCorruptor([]CorruptionEvent{
		{Offset: 0, Length: 512, At: 1},
		{Offset: 512, Length: 512, At: 1},
	})
	if n := c.Repair(0, 512, 2); n != 1 {
		t.Fatalf("Repair cleared %d events, want 1", n)
	}
	if c.FaultIn(0, 512, 3) {
		t.Fatal("repaired extent still faults")
	}
	if !c.FaultIn(512, 512, 3) {
		t.Fatal("repair leaked onto a disjoint event")
	}
	if n := c.Repair(0, 1024, 3); n != 1 {
		t.Fatalf("second Repair cleared %d events, want 1", n)
	}
	if c.Unrepaired(100) != 0 {
		t.Fatal("events left unrepaired")
	}
}

func TestCorruptorRepairIgnoresFutureEvents(t *testing.T) {
	c := NewCorruptor([]CorruptionEvent{{Offset: 0, Length: 512, At: 50}})
	if n := c.Repair(0, 1<<20, 10); n != 0 {
		t.Fatalf("Repair cleared %d future events", n)
	}
	if !c.FaultIn(0, 512, sim.Time(60)) {
		t.Fatal("future event lost by early repair")
	}
}
