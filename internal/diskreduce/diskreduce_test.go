package diskreduce

import (
	"math"
	"testing"
)

func TestSchemeStringsAndOverheads(t *testing.T) {
	if Triplicated.String() != "3-replication" ||
		RAID5Group.String() != "raid5-group" ||
		RAID6Group.String() != "raid6-group" {
		t.Fatal("scheme names wrong")
	}
	if Triplicated.Overhead(8) != 3 {
		t.Fatal("triplication overhead wrong")
	}
	if got := RAID6Group.Overhead(8); math.Abs(got-1.25) > 1e-12 {
		t.Fatalf("raid6 group-8 overhead = %v, want 1.25", got)
	}
	if got := RAID5Group.Overhead(4); math.Abs(got-1.25) > 1e-12 {
		t.Fatalf("raid5 group-4 overhead = %v, want 1.25", got)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	NewStore(Config{GroupSize: 1})
}

func TestFreshBlocksTriplicated(t *testing.T) {
	st := NewStore(DefaultConfig())
	for i := int64(0); i < 10; i++ {
		st.Write(i, 0)
	}
	if got := st.CapacityOverhead(); got != 3 {
		t.Fatalf("fresh overhead = %v, want 3", got)
	}
}

func TestEncodingReducesOverheadTowardRaid(t *testing.T) {
	cfg := DefaultConfig()
	st := NewStore(cfg)
	for i := int64(0); i < 80; i++ {
		st.Write(i, 0)
	}
	st.EncodeTick(cfg.EncodeAfter + 1)
	// All 80 blocks cold: 10 full groups of 8 encode.
	if st.EncodedGroups != 10 {
		t.Fatalf("encoded %d groups, want 10", st.EncodedGroups)
	}
	if got := st.CapacityOverhead(); math.Abs(got-1.25) > 1e-12 {
		t.Fatalf("encoded overhead = %v, want 1.25", got)
	}
}

func TestPartialGroupsWait(t *testing.T) {
	cfg := DefaultConfig()
	st := NewStore(cfg)
	for i := int64(0); i < 5; i++ { // fewer than a group
		st.Write(i, 0)
	}
	if n := st.EncodeTick(cfg.EncodeAfter + 1); n != 0 {
		t.Fatalf("encoded %d groups from a partial set, want 0", n)
	}
	if st.CapacityOverhead() != 3 {
		t.Fatal("partial group must stay replicated")
	}
}

func TestHotBlocksKeepReplicas(t *testing.T) {
	cfg := DefaultConfig()
	st := NewStore(cfg)
	for i := int64(0); i < 8; i++ {
		st.Write(i, 0) // cold by t=100
	}
	for i := int64(8); i < 16; i++ {
		st.Write(i, 90) // still hot at t=100
	}
	st.EncodeTick(100)
	if st.EncodedGroups != 1 {
		t.Fatalf("groups = %d, want 1 (only the cold batch)", st.EncodedGroups)
	}
	// Half the blocks keep 3 replicas, half are in a RAID-5 group of 8.
	if got, want := st.CapacityOverhead(), (3+1.25)/2; math.Abs(got-want) > 1e-12 {
		t.Fatalf("overhead = %v, want %v", got, want)
	}
}

func TestSteadyStateTrajectory(t *testing.T) {
	// Continuous ingest: overhead starts at 3 and settles well below 2 as
	// the encoder keeps pace, but never reaches the pure-RAID floor while
	// hot data exists.
	cfg := DefaultConfig()
	cfg.EncodeAfter = 10
	traj := Simulate(cfg, 100, 200)
	if traj[0] != 3 {
		t.Fatalf("initial overhead = %v, want 3", traj[0])
	}
	last := traj[len(traj)-1]
	if last > 1.5 {
		t.Fatalf("steady-state overhead = %v, want well below 2", last)
	}
	if last <= 1.25 {
		t.Fatalf("steady-state overhead = %v cannot beat the RAID floor with hot data", last)
	}
	// Monotone non-increasing after the first encode wave (fresh writes
	// perturb slightly; allow small wiggle).
	for i := int(cfg.EncodeAfter) + 2; i < len(traj); i++ {
		if traj[i] > traj[i-1]+0.02 {
			t.Fatalf("overhead rising at tick %d: %v -> %v", i, traj[i-1], traj[i])
		}
	}
}

func TestDeterministic(t *testing.T) {
	a := Simulate(DefaultConfig(), 50, 100)
	b := Simulate(DefaultConfig(), 50, 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic trajectory")
		}
	}
}
