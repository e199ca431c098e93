package pfs

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

// dataPathShape is one WriteOp/ReadOp shape the allocation gate and the
// data-path benchmarks share: an op of pieces stripe units on an
// unprotected or a 4+1 file system.
type dataPathShape struct {
	name      string
	pieces    int64
	protected bool
}

var dataPathShapes = []dataPathShape{
	{"pieces=1/unprotected", 1, false},
	{"pieces=16/unprotected", 16, false},
	{"pieces=1/4+1", 1, true},
	{"pieces=16/4+1", 16, true},
}

// dataPathRig is a warm, untraced, timer-less file system with one
// client and one file, ready to issue the same op over and over.
type dataPathRig struct {
	eng  *sim.Engine
	c    *Client
	f    *File
	size int64
	done func(error)
	errs int
}

func newDataPathRig(t testing.TB, sh dataPathShape) *dataPathRig {
	cfg := PanFSLike(8)
	if sh.protected {
		cfg.Redundancy = Redundancy{K: 4, M: 1}
	}
	eng := sim.NewEngine()
	fs := New(eng, cfg)
	r := &dataPathRig{eng: eng, c: fs.NewClient(0), size: sh.pieces * cfg.StripeUnit}
	r.done = func(err error) {
		if err != nil {
			r.errs++
		}
	}
	r.c.Create("/f", func(f *File) { r.f = f })
	eng.Run()
	// Allocate the extents and warm every free list and queue.
	for i := 0; i < 3; i++ {
		r.write()
		r.read()
	}
	if r.errs != 0 || r.f.Size() != r.size {
		t.Fatalf("warm-up: %d errors, size %d, want 0 and %d", r.errs, r.f.Size(), r.size)
	}
	return r
}

func (r *dataPathRig) write() {
	r.c.WriteOp(r.f, 0, r.size, nil, r.done)
	r.eng.Run()
}

func (r *dataPathRig) read() {
	r.c.ReadOp(r.f, 0, r.size, nil, r.done)
	r.eng.Run()
}

// TestDataPathSteadyStateAllocs pins the pooled data path: once warm, a
// WriteOp or ReadOp allocates nothing — no op, piece, fragment or
// request, and no closure per stage — for one piece or sixteen, with or
// without k+m fragments.
func TestDataPathSteadyStateAllocs(t *testing.T) {
	for _, sh := range dataPathShapes {
		r := newDataPathRig(t, sh)
		if avg := testing.AllocsPerRun(20, r.write); avg != 0 {
			t.Errorf("%s: warm WriteOp allocates %.1f times per op, want 0", sh.name, avg)
		}
		if avg := testing.AllocsPerRun(20, r.read); avg != 0 {
			t.Errorf("%s: warm ReadOp allocates %.1f times per op, want 0", sh.name, avg)
		}
		if r.errs != 0 {
			t.Errorf("%s: %d ops failed", sh.name, r.errs)
		}
	}
}

// BenchmarkWriteOp measures the pfs write path per op (client NIC,
// stripe lock, RPC, server NIC, disk, fragments) on a warm file system.
func BenchmarkWriteOp(b *testing.B) {
	for _, sh := range dataPathShapes {
		b.Run(sh.name, func(b *testing.B) {
			r := newDataPathRig(b, sh)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.write()
			}
		})
	}
}

// BenchmarkReadOp measures the pfs read path per op on a warm file
// system.
func BenchmarkReadOp(b *testing.B) {
	for _, sh := range dataPathShapes {
		b.Run(sh.name, func(b *testing.B) {
			r := newDataPathRig(b, sh)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.read()
			}
		})
	}
}

// TestInvalidRangePanics: a negative offset or an end past MaxInt64 is a
// model bug, rejected when the op is issued rather than at event time.
func TestInvalidRangePanics(t *testing.T) {
	eng := sim.NewEngine()
	fs := New(eng, PanFSLike(4))
	c := fs.NewClient(0)
	var f *File
	c.Create("/f", func(h *File) { f = h })
	eng.Run()
	ops := map[string]func(off, size int64){
		"WriteOp": func(off, size int64) { c.WriteOp(f, off, size, nil, nil) },
		"ReadOp":  func(off, size int64) { c.ReadOp(f, off, size, nil, nil) },
	}
	for name, op := range ops {
		for _, r := range []struct{ off, size int64 }{
			{-100, 100000},
			{-70000, 100},
			{-1, 0},
			{math.MaxInt64 - 10, 100},
		} {
			func() {
				defer func() {
					msg := fmt.Sprint(recover())
					if !strings.Contains(msg, name) {
						t.Errorf("%s(%d, %d) panicked with %q, want a panic naming %s", name, r.off, r.size, msg, name)
					}
				}()
				op(r.off, r.size)
			}()
		}
	}
	if eng.Pending() != 0 || f.Size() != 0 {
		t.Fatalf("rejected ops left %d events pending and size %d", eng.Pending(), f.Size())
	}
}
