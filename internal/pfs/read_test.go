package pfs

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// aggregateRead writes a file then measures read bandwidth for nClients
// reading it back with the given record size and sharing mode.
func aggregateRead(t *testing.T, cfg Config, nClients int, perClient, recSize int64, shared bool) float64 {
	t.Helper()
	eng := sim.NewEngine()
	fs := New(eng, cfg)
	// Populate.
	writer := fs.NewClient(1000)
	written := 0
	populate := func(name string, size int64, then func(*File)) {
		writer.Create(name, func(f *File) {
			writer.WriteOp(f, 0, size, nil, func(error) { written++; then(f) })
		})
	}
	var start, end sim.Time
	done := sim.NewBarrier(eng, nClients, func(at sim.Time) { end = at })
	launch := func(cl *Client, f *File, rank int) {
		nRecs := perClient / recSize
		var issue func(i int64)
		issue = func(i int64) {
			if i == nRecs {
				done.Arrive()
				return
			}
			var off int64
			if shared {
				off = (i*int64(nClients) + int64(rank)) * recSize
			} else {
				off = i * recSize
			}
			cl.ReadOp(f, off, recSize, nil, func(error) { issue(i + 1) })
		}
		issue(0)
	}
	if shared {
		populate("/data", perClient*int64(nClients), func(f *File) {
			start = eng.Now()
			for r := 0; r < nClients; r++ {
				launch(fs.NewClient(r), f, r)
			}
		})
	} else {
		ready := sim.NewBarrier(eng, nClients, func(at sim.Time) { start = at })
		for r := 0; r < nClients; r++ {
			r := r
			name := "/data." + string(rune('a'+r))
			populate(name, perClient, func(f *File) {
				ready.Arrive()
				launch(fs.NewClient(r), f, r)
			})
		}
	}
	eng.Run()
	if end <= start {
		t.Fatal("read phase did not complete")
	}
	return float64(perClient) * float64(nClients) / float64(end-start)
}

func TestReadBandwidthPositive(t *testing.T) {
	bw := aggregateRead(t, PanFSLike(4), 4, 2<<20, 1<<20, false)
	if bw <= 0 {
		t.Fatalf("read bandwidth %v", bw)
	}
}

func TestLargeReadsBeatSmallStridedReads(t *testing.T) {
	// Reads skip locks and RMW, but positioning costs still punish small
	// scattered requests.
	cfg := PanFSLike(4)
	large := aggregateRead(t, cfg, 4, 2<<20, 1<<20, false)
	small := aggregateRead(t, cfg, 4, 2<<20, 47008, true)
	if large <= small {
		t.Fatalf("large sequential reads %.0f should beat small strided %.0f", large, small)
	}
}

func TestSharedReadsNeedNoLockRevokes(t *testing.T) {
	cfg := PanFSLike(4)
	eng := sim.NewEngine()
	reg := obs.NewRegistry()
	eng.Instrument(reg, nil)
	fs := New(eng, cfg)
	cl := fs.NewClient(0)
	cl.Create("/f", func(f *File) {
		cl.WriteOp(f, 0, 4<<20, nil, func(error) {
			for i := 0; i < 4; i++ {
				fs.NewClient(i+1).ReadOp(f, int64(i)*47008, 47008, nil, nil)
			}
		})
	})
	eng.Run()
	// The writer grabbed locks; the concurrent readers must not have
	// added revocations.
	if n := reg.Snapshot().Counters["pfs.lock.revokes"]; n != 0 {
		t.Fatalf("single-writer + readers produced %d revokes, want 0", n)
	}
}
