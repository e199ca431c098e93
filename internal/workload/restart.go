package workload

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/pfs"
)

// This file implements the restart (read-back) side of checkpointing —
// the concern of the PLFS follow-on work on read performance ("...And eat
// it too: High read performance in write-optimized HPC I/O middleware
// file formats", Polte et al. PDSW'09): a write-optimized layout must
// still restore quickly. Two restart patterns matter:
//
//   - Uniform restart: the job restarts at the same scale and each rank
//     reads back exactly what it wrote. Through PLFS this is a pure
//     sequential scan of the rank's own data log — optimal.
//   - Shifted restart: the job restarts at a different scale (or rank
//     mapping), so each rank's logical region is scattered across many
//     writers' logs; the read decomposes into many small log reads, the
//     case the index-aware aggregation of the follow-on work targets.

// RestartKind selects the read-back pattern.
type RestartKind int

// Restart patterns.
const (
	UniformRestart RestartKind = iota
	ShiftedRestart
)

func (k RestartKind) String() string {
	if k == UniformRestart {
		return "uniform restart"
	}
	return "shifted restart"
}

// restartPrograms builds the read phase. The checkpoint is assumed written
// by `spec` (same geometry); writeFirst embeds the write ops so the files
// exist with allocated extents before reads.
func restartPrograms(spec Spec, unit int64, kind RestartKind) []Program {
	progs := programs(spec, unit)
	// Append the read phase to each rank's program.
	for r := 0; r < spec.Ranks; r++ {
		var reads []Op
		switch spec.Pattern {
		case PLFSPattern:
			data := fmt.Sprintf("/container/hostdir.%d/data.%d", r%max(spec.PLFSHostdirs, 1), r)
			switch kind {
			case UniformRestart:
				// Rank r reads its own log sequentially.
				for _, o := range appendChunked(nil, data, 0, spec.BytesPerRank, unit) {
					reads = append(reads, Op{File: o.File, Off: o.Off, Size: o.Size, Read: true})
				}
			case ShiftedRestart:
				// Rank r's logical region maps to record-sized pieces of
				// every writer's log: many smaller reads across logs.
				nRecs := spec.BytesPerRank / spec.RecordSize
				for i := int64(0); i < nRecs; i++ {
					src := (r + int(i)) % spec.Ranks
					log := fmt.Sprintf("/container/hostdir.%d/data.%d", src%max(spec.PLFSHostdirs, 1), src)
					reads = append(reads, Op{File: log, Off: i * spec.RecordSize, Size: spec.RecordSize, Read: true})
				}
			}
		case N1Strided:
			// Direct shared-file restart: same strided records, as reads.
			nRecs := spec.BytesPerRank / spec.RecordSize
			for i := int64(0); i < nRecs; i++ {
				off := (i*int64(spec.Ranks) + int64(r)) * spec.RecordSize
				reads = append(reads, Op{File: "/shared", Off: off, Size: spec.RecordSize, Read: true})
			}
		default:
			for _, o := range rankOps(spec, unit, r) {
				reads = append(reads, Op{File: o.File, Off: o.Off, Size: o.Size, Read: true})
			}
		}
		progs[r].Ops = append(progs[r].Ops, reads...)
	}
	return progs
}

// RunRestart measures the combined write+read phase and returns the
// result; Bandwidth covers the full data volume moved (written + read).
// The metrics registry and tracer may be nil.
func RunRestart(cfg pfs.Config, spec Spec, kind RestartKind, reg *obs.Registry, tr *obs.Tracer) Result {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	res := RunPrograms(cfg, restartPrograms(spec, cfg.StripeUnit, kind), reg, tr)
	res.Spec = spec
	return res
}
