package bb

import (
	"testing"

	"repro/internal/pfs"
	"repro/internal/sim"
)

// benchRound runs one full absorb-and-drain checkpoint round per
// iteration: 8 ranks × 1 MiB into a fresh tier, engine drained to
// empty. It measures the event-loop cost of the buffered write path,
// not sim-time.
func benchRound(b *testing.B, cfg Config) {
	const ranks, size = 8, int64(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		fs := pfs.New(eng, pfs.PanFSLike(4))
		tier := NewTier(fs, cfg)
		files := make([]*pfs.File, ranks)
		for r := 0; r < ranks; r++ {
			r := r
			fs.NewClient(r).Create(fileName(r), func(f *pfs.File) { files[r] = f })
		}
		eng.Run()
		for r := 0; r < ranks; r++ {
			tier.WriteOp(r, files[r], 0, size, nil, func(err error) {
				if err != nil {
					b.Fatal(err)
				}
			})
		}
		eng.Run()
		if tier.backlogBytes != 0 {
			b.Fatal("round did not drain")
		}
	}
}

func BenchmarkBBWriteBackRound(b *testing.B) {
	cfg := DefaultConfig(2)
	benchRound(b, cfg)
}

func BenchmarkBBWriteThroughRound(b *testing.B) {
	cfg := DefaultConfig(2)
	cfg.Mode = WriteThrough
	benchRound(b, cfg)
}

// BenchmarkBBSaturatedRound exercises the backpressure path: the buffer
// holds a quarter of the round, so most writes stall and re-admit.
func BenchmarkBBSaturatedRound(b *testing.B) {
	cfg := DefaultConfig(2)
	cfg.Flash.UserPages = 512 // 2 MiB per node vs 8 MiB per round
	cfg.DrainBandwidth = 400e6
	benchRound(b, cfg)
}
