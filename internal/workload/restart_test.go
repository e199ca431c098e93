package workload

import (
	"testing"

	"repro/internal/pfs"
)

func plfsSpec(ranks int) Spec {
	return Spec{
		Ranks: ranks, BytesPerRank: 2 << 20, RecordSize: 47008,
		Pattern: PLFSPattern, PLFSHostdirs: 32, PLFSIndexFlushEvery: 64,
	}
}

func TestRestartKindString(t *testing.T) {
	if UniformRestart.String() != "uniform restart" || ShiftedRestart.String() != "shifted restart" {
		t.Fatal("restart kind names wrong")
	}
}

func TestRestartCompletes(t *testing.T) {
	for _, kind := range []RestartKind{UniformRestart, ShiftedRestart} {
		res := RunRestart(cfg(), plfsSpec(8), kind, nil, nil)
		if res.Elapsed <= 0 || res.Bandwidth <= 0 {
			t.Fatalf("%v: empty result %+v", kind, res)
		}
		// Write + read phases: total bytes close to twice the payload (the
		// read side covers whole records only, so allow the sub-record
		// remainder).
		payload := int64(8 * (2 << 20))
		if res.TotalBytes < payload*19/10 {
			t.Fatalf("%v: TotalBytes %d, want ~%d", kind, res.TotalBytes, 2*payload)
		}
	}
}

func TestUniformRestartFasterThanShifted(t *testing.T) {
	// Uniform restart reads each rank's own log sequentially; shifted
	// restart scatters record-sized reads across every log.
	uni := RunRestart(cfg(), plfsSpec(8), UniformRestart, nil, nil)
	sh := RunRestart(cfg(), plfsSpec(8), ShiftedRestart, nil, nil)
	if uni.Elapsed >= sh.Elapsed {
		t.Fatalf("uniform restart %v should beat shifted %v", uni.Elapsed, sh.Elapsed)
	}
}

func TestPLFSUniformRestartBeatsDirectStridedRestart(t *testing.T) {
	// Even for read-back, per-rank logs beat strided shared-file reads.
	direct := Spec{Ranks: 8, BytesPerRank: 2 << 20, RecordSize: 47008, Pattern: N1Strided}
	d := RunRestart(cfg(), direct, UniformRestart, nil, nil)
	p := RunRestart(cfg(), plfsSpec(8), UniformRestart, nil, nil)
	if p.Elapsed >= d.Elapsed {
		t.Fatalf("PLFS restart %v should beat direct strided %v", p.Elapsed, d.Elapsed)
	}
}

func TestRestartDeterministic(t *testing.T) {
	a := RunRestart(cfg(), plfsSpec(4), ShiftedRestart, nil, nil)
	b := RunRestart(cfg(), plfsSpec(4), ShiftedRestart, nil, nil)
	if a.Elapsed != b.Elapsed {
		t.Fatal("non-deterministic restart")
	}
}

func TestReadOpsRouteThroughReadPath(t *testing.T) {
	// A read-only program on a pre-written file must finish without lock
	// revocations (reads bypass the lock manager).
	c := pfs.PanFSLike(4)
	progs := []Program{{
		Creates: []string{"/f"},
		Ops: []Op{
			{File: "/f", Off: 0, Size: 1 << 20},             // write
			{File: "/f", Off: 0, Size: 1 << 20, Read: true}, // read back
		},
	}}
	res := RunPrograms(c, progs, nil, nil)
	if res.Elapsed <= 0 {
		t.Fatal("program did not complete")
	}
}
