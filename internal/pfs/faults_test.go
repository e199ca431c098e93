package pfs

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// faultConfig is testConfig with timeout and lease semantics made
// visible.
func faultConfig(servers int) Config {
	c := testConfig(servers)
	c.FailTimeout = sim.Time(10e-3)
	c.LeaseExpiry = sim.Time(50e-3)
	return c
}

func TestWriteToCrashedServerTimesOut(t *testing.T) {
	eng := sim.NewEngine()
	fs := New(eng, faultConfig(2))
	fs.InjectFaults(sim.NewFaultPlan().Add(OSSTarget(0), 0, 0).Add(OSSTarget(1), 0, 0))
	cl := fs.NewClient(0)
	var gotErr error
	var doneAt sim.Time
	cl.Create("/f", func(f *File) {
		cl.WriteErr(f, 0, 4096, func(err error) {
			gotErr = err
			doneAt = eng.Now()
		})
	})
	eng.Run()
	if !errors.Is(gotErr, ErrServerDown) {
		t.Fatalf("err = %v, want ErrServerDown", gotErr)
	}
	if doneAt < fs.Cfg.FailTimeout {
		t.Fatalf("failure reported at %v, before the %v timeout", doneAt, fs.Cfg.FailTimeout)
	}
	if fs.FaultStats().FailedOps == 0 {
		t.Fatal("failed op not counted")
	}
}

func TestFailedWriteDoesNotGrowFile(t *testing.T) {
	eng := sim.NewEngine()
	fs := New(eng, faultConfig(2))
	fs.InjectFaults(sim.NewFaultPlan().Add(OSSTarget(0), 0, 0).Add(OSSTarget(1), 0, 0))
	cl := fs.NewClient(0)
	var f *File
	cl.Create("/f", func(h *File) {
		f = h
		cl.WriteErr(h, 0, 1<<20, func(error) {})
	})
	eng.Run()
	if f.Size() != 0 {
		t.Fatalf("failed write grew file to %d bytes", f.Size())
	}
}

func TestCrashMidWriteFailsInFlightOp(t *testing.T) {
	// Crash both servers while a large write is in their disk queues: the
	// pieces were accepted but the acks die with the servers.
	eng := sim.NewEngine()
	fs := New(eng, faultConfig(2))
	fs.InjectFaults(sim.NewFaultPlan().
		Add(OSSTarget(0), sim.Time(1e-3), 0).
		Add(OSSTarget(1), sim.Time(1e-3), 0))
	cl := fs.NewClient(0)
	var gotErr error
	cl.Create("/f", func(f *File) {
		cl.WriteErr(f, 0, 8<<20, func(err error) { gotErr = err })
	})
	eng.Run()
	if !errors.Is(gotErr, ErrServerDown) {
		t.Fatalf("err = %v, want ErrServerDown", gotErr)
	}
}

func TestDegradedReadServedBySurvivorAtPenalty(t *testing.T) {
	run := func(crash bool) (elapsed sim.Time, err error) {
		eng := sim.NewEngine()
		// No network bottleneck, so the k-survivor decode's disk reads
		// dominate the measured latency.
		cfg := faultConfig(4)
		cfg.ClientNetBW = 1e12
		cfg.ServerNetBW = 1e12
		cfg.Redundancy = Redundancy{K: 2, M: 1}
		fs := New(eng, cfg)
		cl := fs.NewClient(0)
		var f *File
		cl.Create("/f", func(h *File) {
			f = h
			cl.Write(h, 0, 4<<20, nil)
		})
		eng.Run()
		if crash {
			// Crash one server after the write; reads of its stripes must
			// be reconstructed from k survivors of their groups.
			fs.InjectFaults(sim.NewFaultPlan().Add(OSSTarget(0), eng.Now(), 0))
		}
		start := eng.Now()
		cl.ReadErr(f, 0, 4<<20, func(e error) {
			elapsed = eng.Now() - start
			err = e
		})
		eng.Run()
		return elapsed, err
	}
	healthy, err := run(false)
	if err != nil {
		t.Fatalf("healthy read failed: %v", err)
	}
	degraded, err := run(true)
	if err != nil {
		t.Fatalf("degraded read failed: %v", err)
	}
	if degraded <= healthy {
		t.Fatalf("degraded read (%v) not slower than healthy read (%v)", degraded, healthy)
	}
}

func TestUnprotectedReadOfDownServerFails(t *testing.T) {
	// With no redundancy nothing can serve a down server's stripes: the
	// read fails like any op against it, after the RPC timeout.
	eng := sim.NewEngine()
	fs := New(eng, faultConfig(4))
	cl := fs.NewClient(0)
	var f *File
	cl.Create("/f", func(h *File) {
		f = h
		cl.Write(h, 0, fs.Cfg.StripeUnit, nil)
	})
	eng.Run()
	home := fs.serverFor(f.st, 0).idx
	start := eng.Now()
	fs.InjectFaults(sim.NewFaultPlan().Add(OSSTarget(home), start, 0))
	var gotErr error
	var doneAt sim.Time
	cl.ReadErr(f, 0, fs.Cfg.StripeUnit, func(err error) {
		gotErr = err
		doneAt = eng.Now()
	})
	eng.Run()
	if !errors.Is(gotErr, ErrServerDown) {
		t.Fatalf("err = %v, want ErrServerDown", gotErr)
	}
	if elapsed := doneAt - start; elapsed > fs.Cfg.RPCLatency+fs.Cfg.FailTimeout {
		t.Fatalf("failure reported after %v, later than RPC + the %v timeout", elapsed, fs.Cfg.FailTimeout)
	}
	if st := fs.FaultStats(); st.DegradedReads != 0 || st.FailedOps != 1 {
		t.Fatalf("stats = %+v, want 1 failed op and no degraded reads", st)
	}
}

func TestAllServersDownReadFails(t *testing.T) {
	eng := sim.NewEngine()
	fs := New(eng, faultConfig(2))
	cl := fs.NewClient(0)
	var f *File
	cl.Create("/f", func(h *File) {
		f = h
		cl.Write(h, 0, 1<<20, nil)
	})
	eng.Run()
	fs.InjectFaults(sim.NewFaultPlan().
		Add(OSSTarget(0), eng.Now(), 0).
		Add(OSSTarget(1), eng.Now(), 0))
	var gotErr error
	cl.ReadErr(f, 0, 1<<20, func(err error) { gotErr = err })
	eng.Run()
	if !errors.Is(gotErr, ErrServerDown) {
		t.Fatalf("err = %v, want ErrServerDown", gotErr)
	}
}

func TestLeaseExpiryDelaysNextWriter(t *testing.T) {
	// Client 0's write dies holding the stripe lock; client 1's write to
	// the same stripe must wait out the lease before it can proceed.
	eng := sim.NewEngine()
	cfg := faultConfig(2)
	fs := New(eng, cfg)
	fs.InjectFaults(sim.NewFaultPlan().
		Add(OSSTarget(0), sim.Time(50e-6), sim.Time(5e-3)).
		Add(OSSTarget(1), sim.Time(50e-6), sim.Time(5e-3)))
	cl0, cl1 := fs.NewClient(0), fs.NewClient(1)
	var doneAt sim.Time
	cl0.Create("/f", func(f *File) {
		cl0.WriteErr(f, 0, 4096, func(error) {})
		cl1.WriteErr(f, 0, 4096, func(error) { doneAt = eng.Now() })
	})
	eng.Run()
	if fs.FaultStats().LeaseExpiries == 0 {
		t.Fatal("no lease expiry recorded")
	}
	if doneAt < cfg.LeaseExpiry {
		t.Fatalf("second writer finished at %v, inside the %v lease", doneAt, cfg.LeaseExpiry)
	}
}

func TestRecoveredServerServesWrites(t *testing.T) {
	eng := sim.NewEngine()
	fs := New(eng, faultConfig(2))
	fs.InjectFaults(sim.NewFaultPlan().
		Add(OSSTarget(0), 0, sim.Time(100e-3)).
		Add(OSSTarget(1), 0, sim.Time(100e-3)))
	eng.RunUntil(sim.Time(200e-3)) // both servers back up
	cl := fs.NewClient(0)
	var gotErr = errors.New("never completed")
	cl.Create("/f", func(f *File) {
		cl.WriteErr(f, 0, 1<<20, func(err error) { gotErr = err })
	})
	eng.Run()
	if gotErr != nil {
		t.Fatalf("write after recovery failed: %v", gotErr)
	}
	st := fs.FaultStats()
	if st.Crashes != 2 || st.Recoveries != 2 {
		t.Fatalf("stats = %+v, want 2 crashes and 2 recoveries", st)
	}
}

func TestFaultCountersAppearInSnapshot(t *testing.T) {
	eng := sim.NewEngine()
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	eng.Instrument(reg, tr)
	fs := New(eng, faultConfig(2))
	fs.InjectFaults(sim.NewFaultPlan().Add(OSSTarget(0), 0, sim.Time(10e-3)))
	cl := fs.NewClient(0)
	cl.Create("/f", func(f *File) {
		cl.WriteErr(f, 0, 1<<20, func(error) {})
	})
	eng.Run()
	s := reg.Snapshot()
	if s.Counters["pfs.faults.crashes"] != 1 {
		t.Fatalf("pfs.faults.crashes = %d, want 1", s.Counters["pfs.faults.crashes"])
	}
	if s.Counters["pfs.faults.recoveries"] != 1 {
		t.Fatalf("pfs.faults.recoveries = %d, want 1", s.Counters["pfs.faults.recoveries"])
	}
	if s.Counters["sim.faults.injected"] != 1 {
		t.Fatalf("sim.faults.injected = %d, want 1", s.Counters["sim.faults.injected"])
	}
}

func TestUnknownFaultTargetsIgnored(t *testing.T) {
	eng := sim.NewEngine()
	fs := New(eng, faultConfig(2))
	fs.InjectFaults(sim.NewFaultPlan().
		Add("mds", 0, 0).        // foreign subsystem
		Add(OSSTarget(7), 0, 0). // out of range
		Add("oss01", 0, 0).      // aliases of real servers: only the
		Add("oss+1", 0, 0).      // exact OSSTarget spelling names one
		Add("oss1junk", 0, 0))
	eng.Run()
	if st := fs.FaultStats(); st.Crashes != 0 {
		t.Fatalf("foreign targets crashed %d servers", st.Crashes)
	}
}

func TestNoFaultsRunIsByteIdenticalWithFaultLayerPresent(t *testing.T) {
	// The fault layer must be zero-cost when disabled: a run with fault
	// knobs set but no plan injected produces the same metrics snapshot
	// as one with a default config.
	run := func(cfg Config) string {
		eng := sim.NewEngine()
		reg := obs.NewRegistry()
		eng.Instrument(reg, obs.NewTracer())
		fs := New(eng, cfg)
		cl := fs.NewClient(0)
		cl.Create("/f", func(f *File) {
			cl.Write(f, 0, 8<<20, func() {
				cl.Read(f, 0, 8<<20, nil)
			})
		})
		eng.Run()
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	plain := run(testConfig(4))
	knobbed := run(faultConfig(4))
	if plain != knobbed {
		t.Fatal("fault knobs changed a fault-free run's metrics snapshot")
	}
}
