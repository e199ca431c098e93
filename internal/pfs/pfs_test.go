package pfs

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

func testConfig(servers int) Config {
	c := PanFSLike(servers)
	return c
}

func TestSplitCoversRangeExactly(t *testing.T) {
	cases := []struct {
		off, size, unit int64
		wantPieces      int
	}{
		{0, 64 << 10, 64 << 10, 1},       // exactly one unit
		{0, 128 << 10, 64 << 10, 2},      // two full units
		{100, 64 << 10, 64 << 10, 2},     // unaligned straddle
		{(64 << 10) - 1, 2, 64 << 10, 2}, // minimal straddle
		{10, 20, 64 << 10, 1},            // tiny interior write
	}
	for _, c := range cases {
		var pieces []subOp
		for off, size := c.off, c.size; size > 0; {
			p := pieceAt(off, size, c.unit)
			pieces = append(pieces, p)
			off += p.size
			size -= p.size
		}
		if len(pieces) != c.wantPieces {
			t.Fatalf("pieceAt walk of (%d,%d,%d) = %d pieces, want %d", c.off, c.size, c.unit, len(pieces), c.wantPieces)
		}
		var total int64
		off := c.off
		for _, p := range pieces {
			if p.unit != off/c.unit {
				t.Fatalf("piece unit %d, want %d", p.unit, off/c.unit)
			}
			if p.offIn != off%c.unit {
				t.Fatalf("piece offIn %d, want %d", p.offIn, off%c.unit)
			}
			total += p.size
			off += p.size
		}
		if total != c.size {
			t.Fatalf("pieces cover %d bytes, want %d", total, c.size)
		}
	}
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	eng.Instrument(obs.NewRegistry(), nil)
	fs := New(eng, testConfig(4))
	cl := fs.NewClient(0)
	var wrote, read bool
	cl.Create("/ckpt", func(f *File) {
		cl.WriteOp(f, 0, 1<<20, nil, func(error) {
			wrote = true
			if f.st.size != 1<<20 {
				t.Errorf("Size = %d, want %d", f.st.size, 1<<20)
			}
			cl.ReadOp(f, 0, 1<<20, nil, func(error) { read = true })
		})
	})
	eng.Run()
	if !wrote || !read {
		t.Fatalf("wrote=%v read=%v, want both true", wrote, read)
	}
	var written int64
	for _, s := range fs.servers {
		written += s.tally.bytesW
	}
	if written != 1<<20 {
		t.Fatalf("servers wrote %d bytes, want %d", written, 1<<20)
	}
	if fs.MetadataOps() != 1 {
		t.Fatalf("MetadataOps = %d, want 1", fs.MetadataOps())
	}
}

func TestWriteGrowsFileMonotonically(t *testing.T) {
	eng := sim.NewEngine()
	fs := New(eng, testConfig(2))
	cl := fs.NewClient(0)
	cl.Create("/f", func(f *File) {
		cl.WriteOp(f, 100, 50, nil, nil)
		cl.WriteOp(f, 0, 10, nil, nil) // does not shrink
	})
	eng.Run()
	cl2 := fs.NewClient(1)
	var size int64
	cl2.Open("/f", func(f *File) { size = f.st.size })
	eng.Run()
	if size != 150 {
		t.Fatalf("size = %d, want 150", size)
	}
}

func TestZeroSizeOpsCompleteImmediately(t *testing.T) {
	eng := sim.NewEngine()
	fs := New(eng, testConfig(2))
	cl := fs.NewClient(0)
	calls := 0
	cl.Create("/f", func(f *File) {
		cl.WriteOp(f, 0, 0, nil, func(error) { calls++ })
		cl.ReadOp(f, 0, 0, nil, func(error) { calls++ })
	})
	eng.Run()
	if calls != 2 {
		t.Fatalf("zero-size callbacks = %d, want 2", calls)
	}
}

// aggregateWrite runs nClients each writing perClient bytes with the given
// pattern and returns achieved aggregate bandwidth in bytes/sec.
func aggregateWrite(t *testing.T, cfg Config, nClients int, perClient int64, recSize int64, shared bool) float64 {
	t.Helper()
	eng := sim.NewEngine()
	fs := New(eng, cfg)
	var start sim.Time
	var elapsed sim.Time
	doneAll := sim.NewBarrier(eng, nClients, func(at sim.Time) { elapsed = at - start })

	launch := func(cl *Client, f *File, rank int) {
		nRecs := perClient / recSize
		var issue func(i int64)
		issue = func(i int64) {
			if i == nRecs {
				doneAll.Arrive()
				return
			}
			var off int64
			if shared {
				// N-1 strided: record i of rank r lands at global record
				// index i*nClients + r.
				off = (i*int64(nClients) + int64(rank)) * recSize
			} else {
				off = i * recSize
			}
			cl.WriteOp(f, off, recSize, nil, func(error) { issue(i + 1) })
		}
		issue(0)
	}

	if shared {
		cl0 := fs.NewClient(0)
		cl0.Create("/shared", func(f *File) {
			start = eng.Now()
			for r := 0; r < nClients; r++ {
				cl := fs.NewClient(r)
				launch(cl, f, r)
			}
		})
	} else {
		start = 0
		for r := 0; r < nClients; r++ {
			r := r
			cl := fs.NewClient(r)
			cl.Create(fmt.Sprintf("/f.%d", r), func(f *File) { launch(cl, f, r) })
		}
	}
	eng.Run()
	if elapsed <= 0 {
		t.Fatal("workload did not complete")
	}
	return float64(perClient) * float64(nClients) / float64(elapsed)
}

func TestNToNBeatsStridedNTo1(t *testing.T) {
	// The foundational PLFS observation: on the same hardware, N-N
	// streaming vastly outperforms small strided N-1 writes.
	cfg := testConfig(4)
	nn := aggregateWrite(t, cfg, 8, 4<<20, 1<<20, false)
	n1 := aggregateWrite(t, cfg, 8, 4<<20, 47008, true) // small unaligned records
	if ratio := nn / n1; ratio < 5 {
		t.Fatalf("N-N/N-1 bandwidth ratio = %.1f (nn=%.0f n1=%.0f), want >= 5", ratio, nn, n1)
	}
}

func TestLargeAlignedNTo1IsFine(t *testing.T) {
	// N-1 with stripe-aligned full-unit records should be in the same
	// ballpark as N-N; the pathology is specifically small unaligned
	// records.
	cfg := testConfig(4)
	aligned := aggregateWrite(t, cfg, 8, 4<<20, cfg.StripeUnit, true)
	small := aggregateWrite(t, cfg, 8, 4<<20, 47008, true)
	if aligned < 3*small {
		t.Fatalf("aligned N-1 %.0f should far exceed unaligned N-1 %.0f", aligned, small)
	}
}

func TestMoreServersMoreBandwidth(t *testing.T) {
	cfg2 := testConfig(2)
	cfg8 := testConfig(8)
	bw2 := aggregateWrite(t, cfg2, 8, 2<<20, 1<<20, false)
	bw8 := aggregateWrite(t, cfg8, 8, 2<<20, 1<<20, false)
	if bw8 <= bw2 {
		t.Fatalf("8 servers (%.0f B/s) should beat 2 servers (%.0f B/s)", bw8, bw2)
	}
}

func TestLockRevocationCostsShowUpInSharedWrites(t *testing.T) {
	base := testConfig(4)
	noLocks := base
	noLocks.LockRevoke = 0
	withLocks := aggregateWrite(t, base, 8, 1<<20, 4096, true)
	lockFree := aggregateWrite(t, noLocks, 8, 1<<20, 4096, true)
	if lockFree <= withLocks {
		t.Fatalf("disabling lock revokes should raise bandwidth: with=%.0f without=%.0f", withLocks, lockFree)
	}
}

func TestServerUtilizationBalancedUnderStriping(t *testing.T) {
	cfg := testConfig(4)
	eng := sim.NewEngine()
	fs := New(eng, cfg)
	cl := fs.NewClient(0)
	cl.Create("/big", func(f *File) {
		cl.WriteOp(f, 0, 64<<20, nil, nil)
	})
	eng.Run()
	utils := make([]float64, len(fs.servers))
	for i, s := range fs.servers {
		utils[i] = s.dq.Utilization()
	}
	lo, hi := utils[0], utils[0]
	for _, u := range utils {
		if u < lo {
			lo = u
		}
		if u > hi {
			hi = u
		}
	}
	if hi == 0 || lo < hi*0.5 {
		t.Fatalf("unbalanced server utilizations: %v", utils)
	}
}

func TestReadOfHoleCostsNoDiskTime(t *testing.T) {
	eng := sim.NewEngine()
	fs := New(eng, testConfig(2))
	cl := fs.NewClient(0)
	var done bool
	cl.Create("/sparse", func(f *File) {
		cl.ReadOp(f, 10<<20, 4096, nil, func(error) { done = true })
	})
	eng.Run()
	if !done {
		t.Fatal("hole read never completed")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	New(sim.NewEngine(), Config{})
}

func TestPresetsValidate(t *testing.T) {
	for _, cfg := range AllPresets(8) {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestDeterministicAggregateBandwidth(t *testing.T) {
	cfg := testConfig(4)
	a := aggregateWrite(t, cfg, 4, 1<<20, 4096, true)
	b := aggregateWrite(t, cfg, 4, 1<<20, 4096, true)
	if a != b {
		t.Fatalf("non-deterministic bandwidth: %v vs %v", a, b)
	}
}
