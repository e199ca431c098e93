package sim

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/obs"
)

// clusterFixture runs a multi-domain model on a cluster with the given
// shard count and returns the serialized snapshot and series CSV. The
// model is deliberately chatty across domains: eight domains, each with
// its own FIFO server, periodic local work, per-domain instruments
// (prefixed names, a utilization series sampled through the shard's
// Engine.Sample), and a token ring circulating through Cluster.Send
// with a stable per-domain key. Everything observable must come out
// byte-identical for any shard count and any GOMAXPROCS.
func clusterFixture(t *testing.T, shards int) (snap, csv []byte) {
	t.Helper()
	const (
		domains   = 8
		rounds    = 20
		lookahead = Time(0.002)
	)
	reg := obs.NewRegistry()
	reg.EnableTimeSeries(0.01)
	cl, engines := NewCluster(shards, lookahead)
	cl.Instrument(reg)

	type domain struct {
		shard  int
		eng    *Engine
		srv    *Server
		cDone  *obs.Counter
		cToken *obs.Counter
		hSvc   *obs.Histogram
	}
	doms := make([]*domain, domains)
	for d := 0; d < domains; d++ {
		shard := d % shards
		eng := engines[shard]
		name := fmt.Sprintf("test.dom%02d", d)
		doms[d] = &domain{
			shard:  shard,
			eng:    eng,
			srv:    NewServer(eng, 1),
			cDone:  reg.Counter(name + ".done"),
			cToken: reg.Counter(name + ".tokens"),
			hSvc:   reg.Histogram(name+".latency_s", obs.TimeBuckets()),
		}
		// A shard-local sampler: it must tick on the cluster's grid, not
		// in its shard's queue, and read a clock standing at the tick.
		srv, util := doms[d].srv, reg.TimeSeries(name+".util")
		eng.Sample(0.01, func(now Time) { util.Observe(float64(now), srv.Utilization()) })
	}

	for d := 0; d < domains; d++ {
		d := d
		dom := doms[d]
		for k := 0; k < rounds; k++ {
			k := k
			at := Time(d)*0.0005 + Time(k)*0.01
			dom.eng.At(at, func() {
				start := dom.eng.Now()
				dom.srv.Submit(0.003, func(done Time) {
					dom.cDone.Inc()
					dom.hSvc.Observe(float64(done - start))
				})
			})
		}
	}

	// Token ring: on receipt, domain d forwards to d+1 from its own
	// shard, keyed by the sending domain so merge order is
	// placement-independent. Each domain injects one starting token.
	onToken := make([]func(round int), domains)
	for d := 0; d < domains; d++ {
		d := d
		dom := doms[d]
		nd := (d + 1) % domains
		key := fmt.Sprintf("dom%02d", d)
		onToken[d] = func(round int) {
			dom.cToken.Inc()
			if round >= rounds {
				return
			}
			cl.Send(dom.shard, doms[nd].shard, key, lookahead+Time(round%3)*0.001, func() {
				onToken[nd](round + 1)
			})
		}
		dom.eng.At(Time(d)*0.0007, func() { onToken[d](0) })
	}

	cl.Run()

	var sb, cb bytes.Buffer
	if err := reg.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteSeriesCSV(&cb); err != nil {
		t.Fatal(err)
	}
	return sb.Bytes(), cb.Bytes()
}

// TestClusterByteIdenticalAcrossShardsAndProcs is the tentpole golden
// property: snapshots and series from shard counts 1, 2, and 8 are
// byte-identical, at GOMAXPROCS 1 and 4 both.
func TestClusterByteIdenticalAcrossShardsAndProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var wantSnap, wantCSV []byte
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, shards := range []int{1, 2, 8} {
			snap, csv := clusterFixture(t, shards)
			if wantSnap == nil {
				wantSnap, wantCSV = snap, csv
				if len(wantSnap) == 0 || len(wantCSV) == 0 {
					t.Fatal("fixture produced empty output")
				}
				continue
			}
			if !bytes.Equal(snap, wantSnap) {
				t.Errorf("procs=%d shards=%d: snapshot differs from baseline", procs, shards)
			}
			if !bytes.Equal(csv, wantCSV) {
				t.Errorf("procs=%d shards=%d: series CSV differs from baseline", procs, shards)
			}
		}
	}
}

// TestClusterSingleShardMatchesEngine: a model that never sends runs
// identically on a plain engine and on shard 0 of a cluster.
func TestClusterSingleShardMatchesEngine(t *testing.T) {
	build := func(eng *Engine) *[]Time {
		srv := NewServer(eng, 2)
		var out []Time
		p := &out
		for i := 0; i < 30; i++ {
			eng.At(Time(i%7)*0.01, func() {
				srv.Submit(0.004, func(done Time) { *p = append(*p, done) })
			})
		}
		return p
	}
	plain := NewEngine()
	wantP := build(plain)
	plainEnd := plain.Run()

	cl, engines := NewCluster(4, Infinity)
	gotP := build(engines[0])
	clEnd := cl.Run()

	if plainEnd != clEnd {
		t.Fatalf("end time: engine %v, cluster %v", plainEnd, clEnd)
	}
	want, got := *wantP, *gotP
	if len(want) != len(got) {
		t.Fatalf("completions: engine %d, cluster %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("completion %d: engine %v, cluster %v", i, want[i], got[i])
		}
	}
}

func TestClusterSendBelowLookaheadPanics(t *testing.T) {
	cl, _ := NewCluster(2, 0.01)
	defer func() {
		if recover() == nil {
			t.Fatal("Send below lookahead did not panic")
		}
	}()
	cl.Send(0, 1, "k", 0.005, func() {})
}

func TestClusterSendMergeOrderIsKeyed(t *testing.T) {
	// Two senders on different shards deliver to shard 0 at the same
	// instant; the keyed merge must order "a" before "b" no matter
	// which worker staged first.
	for trial := 0; trial < 10; trial++ {
		cl, engines := NewCluster(3, 0.001)
		var got []string
		for i, key := range []string{"b", "a"} {
			src := i + 1
			key := key
			engines[src].At(0.005, func() {
				cl.Send(src, 0, key, 0.001, func() { got = append(got, key) })
			})
		}
		cl.Run()
		if len(got) != 2 || got[0] != "a" || got[1] != "b" {
			t.Fatalf("trial %d: same-time sends delivered as %v, want [a b]", trial, got)
		}
	}
}

func TestClusterSampleGridAndFinalTick(t *testing.T) {
	cl, engines := NewCluster(2, Infinity)
	var ticks []Time
	cl.Sample(0.01, func(now Time) { ticks = append(ticks, now) })
	fired := 0
	engines[1].At(0.025, func() { fired++ })
	cl.Run()
	if fired != 1 {
		t.Fatalf("event fired %d times", fired)
	}
	// Ticks at 0.01 and 0.02 precede the event at 0.025; one final tick
	// at 0.03 fires after the model drains.
	want := []Time{0.01, 0.02, 0.03}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestClusterRunWithNoEvents(t *testing.T) {
	cl, _ := NewCluster(2, Infinity)
	if end := cl.Run(); end != 0 {
		t.Fatalf("empty cluster ended at %v", end)
	}
}
