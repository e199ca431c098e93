package workload

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// integrityFixture is a corruption-heavy run on 2+1 groups: events land
// in the first 128 KiB of each drive and all arrive during the hour-long
// dwell before read-back. One-record group units keep the parity regions
// from covering that range.
func integrityFixture(checksums bool, scrub sim.Time) (pfs.Config, IntegritySpec) {
	cfg := pfs.PanFSLike(4)
	cfg.Checksums = checksums
	cfg.Redundancy = pfs.Redundancy{K: 2, M: 1, UnitBytes: 4 << 10}
	events := failure.DrawLSE(failure.LSESpec{
		Disks:         4,
		CapacityBytes: 1 << 17,
		MTBC:          200,
		Shape:         1.0,
		TornFraction:  0.2,
		Horizon:       3600,
	}, 42)
	return cfg, IntegritySpec{
		Spec: Spec{
			Ranks:        4,
			BytesPerRank: 1 << 18,
			RecordSize:   4096,
			Pattern:      N1Strided,
		},
		Events:        events,
		Expose:        3600,
		ScrubInterval: scrub,
	}
}

// TestIntegrityChecksumsFlagOrRepairEverything is the acceptance pin at
// the workload level: with checksums on, every read overlapping injected
// corruption is either transparently repaired or flagged — nothing rides
// along silently. The counters must balance exactly.
func TestIntegrityChecksumsFlagOrRepairEverything(t *testing.T) {
	cfg, spec := integrityFixture(true, 0)
	res := RunIntegrity(cfg, spec, nil, nil)
	st := res.Stats
	if st.Injected == 0 || st.Detected == 0 {
		t.Fatalf("fixture injected/detected nothing: %+v", st)
	}
	if st.SilentReads != 0 {
		t.Fatalf("%d corrupt reads reached the application un-flagged", st.SilentReads)
	}
	if st.Detected != st.Repaired+st.Unrecoverable {
		t.Fatalf("detection ledger unbalanced: %+v", st)
	}
	// All four servers stayed up, so every group had k live members to
	// reconstruct from: nothing unrecoverable, nothing flagged.
	if st.Unrecoverable != 0 || res.FlaggedReads != 0 {
		t.Fatalf("healthy cluster had unrecoverable units: %+v flagged=%d", st, res.FlaggedReads)
	}
}

// TestIntegrityScrubShrinksExposure compares checksums-off runs with and
// without background scrubbing: the scrubbed run must deliver strictly
// less silent corruption to the application, because only events arriving
// after the last scrub pass are still rotten at read-back.
func TestIntegrityScrubShrinksExposure(t *testing.T) {
	cfg, bare := integrityFixture(false, 0)
	cfgS, scrubbed := integrityFixture(false, 600)
	resBare := RunIntegrity(cfg, bare, nil, nil)
	resScrub := RunIntegrity(cfgS, scrubbed, nil, nil)

	if resBare.Stats.SilentReads == 0 {
		t.Fatalf("unscrubbed fixture produced no silent reads: %+v", resBare.Stats)
	}
	if resScrub.ScrubPasses == 0 {
		t.Fatal("scrubbed run completed no scrub passes")
	}
	if resScrub.Stats.SilentReads >= resBare.Stats.SilentReads {
		t.Fatalf("scrubbing did not shrink silent reads: %d (scrubbed) vs %d (bare)",
			resScrub.Stats.SilentReads, resBare.Stats.SilentReads)
	}
	if resScrub.UnrepairedAtRead >= resBare.UnrepairedAtRead {
		t.Fatalf("scrubbing did not shrink exposure: %d vs %d unrepaired at read",
			resScrub.UnrepairedAtRead, resBare.UnrepairedAtRead)
	}
	// Scrubs always verify, even with read-path checksums off.
	if resScrub.Stats.Repaired == 0 {
		t.Fatalf("scrub passes repaired nothing: %+v", resScrub.Stats)
	}
}

// TestRunIntegrityDeterministic pins seed determinism end to end: two
// identical runs must agree on every result field and serialize
// byte-identical metrics snapshots.
func TestRunIntegrityDeterministic(t *testing.T) {
	run := func() (IntegrityResult, []byte) {
		cfg, spec := integrityFixture(true, 600)
		reg := obs.NewRegistry()
		res := RunIntegrity(cfg, spec, reg, nil)
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}
	resA, snapA := run()
	resB, snapB := run()
	if !reflect.DeepEqual(resA, resB) {
		t.Fatalf("results diverged:\nA: %+v\nB: %+v", resA, resB)
	}
	if !bytes.Equal(snapA, snapB) {
		t.Fatal("metrics snapshots diverged between same-seed runs")
	}
}
