package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bb"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

var updateGoldens = flag.Bool("update-fault-goldens", false,
	"rewrite testdata/fault_* from the current code instead of comparing against it")

// faultGoldenCase is one pinned fault-path run. run returns its
// artifacts by file suffix; a ".trace.json" artifact is pinned as its
// sha256 and byte count, every other artifact byte for byte.
type faultGoldenCase struct {
	name string
	run  func(t *testing.T) map[string][]byte
}

// TestFaultPathsMatchGoldens pins the fault paths to a recorded
// trajectory: crashes, lease expiry and retries on k+m groups, N-1 lock
// waits and read-modify-write under faults, a write-back burst buffer
// with a node crash, a two-pod rebuild storm, and degraded, lost,
// checksum-repaired and scrubbed reads. The same-seed determinism tests
// compare a binary only with itself, so an event reordering in the data
// path passes them; it does not pass this test.
func TestFaultPathsMatchGoldens(t *testing.T) {
	for _, c := range []faultGoldenCase{
		{"faults_2p1", faultsGoldenRun(NN)},
		{"faults_n1", faultsGoldenRun(N1Strided)},
		{"bb", bbGoldenRun},
		{"rebuild_2pod", rebuildGoldenRun},
		{"degraded_read", degradedReadGoldenRun},
	} {
		t.Run(c.name, func(t *testing.T) {
			for suffix, got := range c.run(t) {
				path := filepath.Join("testdata", "fault_"+c.name+suffix)
				if strings.HasSuffix(suffix, ".trace.json") {
					path += ".sha256"
					got = []byte(digest(got))
				}
				if *updateGoldens {
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s diverged from its golden: got %d bytes, want %d bytes\n%s",
						path, len(got), len(want), firstDiff(got, want))
				}
			}
		})
	}
}

// digest is the pinned form of a trace: its sha256 and byte count.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%s %d\n", hex.EncodeToString(sum[:]), len(b))
}

// capture serializes a registry's snapshot, series CSV (when non-empty)
// and report (when asked), and a tracer's trace (when non-nil).
func capture(t *testing.T, reg *obs.Registry, tr *obs.Tracer, report bool) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	var snap, csv bytes.Buffer
	if err := reg.WriteJSON(&snap); err != nil {
		t.Fatal(err)
	}
	out[".json"] = snap.Bytes()
	if err := reg.WriteSeriesCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if reg.SeriesWindow() > 0 {
		out[".csv"] = csv.Bytes()
	}
	if report {
		var rep bytes.Buffer
		if err := obs.WriteReport(&rep, reg.Snapshot()); err != nil {
			t.Fatal(err)
		}
		out[".report.txt"] = rep.Bytes()
	}
	if tr != nil {
		var tb bytes.Buffer
		if err := tr.WriteJSON(&tb); err != nil {
			t.Fatal(err)
		}
		out[".trace.json"] = tb.Bytes()
	}
	return out
}

// faultsGoldenRun is goldenFaultSpec on 2+1 groups with op timers: N-N
// for crashes, retries and rebuild traffic under healthy checkpoints,
// N-1 strided for lock waits, revokes, lease expiry and RMW on top.
func faultsGoldenRun(p Pattern) func(t *testing.T) map[string][]byte {
	return func(t *testing.T) map[string][]byte {
		cfg, fspec := goldenFaultSpec()
		cfg.Redundancy = pfs.Redundancy{K: 2, M: 1}
		if p == N1Strided {
			fspec.Spec = Spec{Ranks: 4, BytesPerRank: 1 << 20, RecordSize: 47008, Pattern: N1Strided}
		}
		reg := obs.NewRegistry()
		reg.EnableOpTimers()
		tr := obs.NewTracer()
		res := RunFaults(cfg, fspec, reg, tr)
		if res.Faults.Crashes == 0 || res.Retries == 0 {
			t.Fatalf("plan did not bite: %+v", res)
		}
		return capture(t, reg, tr, true)
	}
}

// bbGoldenRun is the buffered run of
// TestSameSeedBufferedRunsAreByteIdentical.
func bbGoldenRun(t *testing.T) map[string][]byte {
	cfg, fspec := bbFaultSpec()
	fspec.MaxRetries = 4
	fspec.RetryBackoff = sim.Time(2e-3)
	fspec.Plan = sim.NewFaultPlan().
		Add(bb.NodeTarget(1), 0.2, 0.15).
		Add(pfs.OSSTarget(0), 0.4, 0.1)
	reg := obs.NewRegistry()
	reg.EnableOpTimers()
	reg.EnableTimeSeries(0.05)
	tr := obs.NewTracer()
	res := RunFaults(cfg, fspec, reg, tr)
	if res.BB.Crashes != 1 || res.Faults.Crashes != 1 {
		t.Fatalf("plan not applied: %+v", res)
	}
	return capture(t, reg, tr, false)
}

// rebuildGoldenRun is a two-pod 4+2 storm on 16 OSS per pod.
func rebuildGoldenRun(t *testing.T) map[string][]byte {
	spec := rebuildSpec(1)
	spec.Pods = 2
	spec.Servers = 16
	spec.Red = pfs.Redundancy{K: 4, M: 2, UnitBytes: 256 << 10, ChunkBytes: 64 << 10}
	spec.Rounds = 2
	reg := obs.NewRegistry()
	res := RunRebuild(spec, reg)
	if res.Rebuild.Started == 0 || res.Ops == 0 {
		t.Fatalf("storm did not run: %+v", res)
	}
	return capture(t, reg, nil, false)
}

// timedOp issues one write or read under a fresh stage timer and
// observes the timer when the op succeeds, as the rank loops time a
// logical op.
func timedOp(fs *pfs.FS, c *pfs.Client, f *pfs.File, read bool, off, size int64, done func(error)) {
	start, op, finish := fs.StartWriteOp, c.WriteOp, fs.FinishWriteOp
	if read {
		start, op, finish = fs.StartReadOp, c.ReadOp, fs.FinishReadOp
	}
	ot := start(new(obs.OpTimer))
	op(f, off, size, ot, func(err error) {
		if err == nil {
			finish(ot)
		}
		done(err)
	})
}

// degradedReadGoldenRun writes a checkpoint onto 2+1 groups with
// checksums on, then reads it back while servers are down: reads of a
// crashed home reconstruct from survivors, reads of a group past m
// failures are typed losses, reads over torn extents repair through the
// group, and a scrub pass sweeps every server's extents, rebuilt
// spares included.
func degradedReadGoldenRun(t *testing.T) map[string][]byte {
	cfg := pfs.PanFSLike(6)
	cfg.FailTimeout = sim.Time(5e-3)
	cfg.LeaseExpiry = sim.Time(20e-3)
	cfg.Checksums = true
	cfg.Redundancy = pfs.Redundancy{K: 2, M: 1, UnitBytes: 1 << 20, ChunkBytes: 256 << 10}

	eng := sim.NewEngine()
	reg := obs.NewRegistry()
	reg.EnableOpTimers()
	reg.EnableTimeSeries(0.05)
	tr := obs.NewTracer()
	eng.Instrument(reg, tr)
	fs := pfs.New(eng, cfg)
	// oss0 dies for good and is rebuilt onto spares; oss5 and oss2
	// overlap it, which pushes the groups they share past m.
	plan := sim.NewFaultPlan().
		Add(pfs.OSSTarget(0), 0.3, 0).
		Add(pfs.OSSTarget(5), 0.32, 0.4).
		Add(pfs.OSSTarget(2), 0.5, 0.2)
	if err := fs.InjectFaults(plan); err != nil {
		t.Fatal(err)
	}

	const ranks, perRank, rec = 4, 1 << 20, 96 << 10
	var errs [3]int
	count := func(err error) {
		switch {
		case err == nil:
			errs[0]++
		case errors.Is(err, pfs.ErrDataLoss):
			errs[1]++
		default:
			errs[2]++
		}
	}
	files := make([]*pfs.File, ranks)
	clients := make([]*pfs.Client, ranks)
	// readBack reads every rank's records at time at, twice in a row, so the
	// second pass meets whatever the first pass repaired.
	readBack := func(at sim.Time) {
		eng.At(at, func() {
			for r := range clients {
				c, f := clients[r], files[r]
				var next func(off int64)
				next = func(off int64) {
					if off >= 2*perRank {
						return
					}
					timedOp(fs, c, f, true, off%perRank, rec, func(err error) {
						count(err)
						next(off + rec)
					})
				}
				next(0)
			}
		})
	}
	for r := range clients {
		r := r
		clients[r] = fs.NewClient(r)
		clients[r].Create(fmt.Sprintf("/ckpt/rank%d", r), func(f *pfs.File) {
			files[r] = f
			var next func(off int64)
			next = func(off int64) {
				if off >= perRank {
					return
				}
				timedOp(fs, clients[r], f, false, off, rec, func(err error) {
					count(err)
					next(off + rec)
				})
			}
			next(0)
		})
	}
	eng.At(0.25, func() {
		for r := range files {
			fs.CorruptExtent(files[r].Name(), int64(r)*rec, 3*rec)
		}
	})
	readBack(0.31)
	readBack(0.55)
	eng.At(1.5, func() { fs.Scrub(nil) })
	readBack(2.5)
	eng.Run()

	fst := fs.FaultStats()
	if fst.DegradedReads == 0 || errs[1] == 0 || fs.IntegrityStats().Repaired == 0 || fs.RebuildStats().Completed == 0 {
		t.Fatalf("degraded-read run missed a path: faults %+v, ok/loss/other %v, integrity %+v, rebuild %+v",
			fst, errs, fs.IntegrityStats(), fs.RebuildStats())
	}
	return capture(t, reg, tr, true)
}
