package giga

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// mappingOf builds the dense mapping holding the same entries as m.
func mappingOf(m refMapping) mapping {
	var dm mapping
	for i, d := range m {
		dm.set(i, d)
	}
	return dm
}

// sameEntries reports whether dense and ref record the same partitions
// at the same depths.
func sameEntries(dense mapping, ref refMapping) bool {
	n := 0
	for i := range dense {
		d, ok := dense.get(uint64(i))
		if !ok {
			continue
		}
		n++
		if rd, rok := ref[uint64(i)]; !rok || rd != d {
			return false
		}
	}
	return n == len(ref)
}

func TestMappingLocateRoot(t *testing.T) {
	m := newMapping()
	for _, h := range []uint64{0, 1, 12345, ^uint64(0)} {
		if p := m.locate(h); p.Index != 0 || p.Depth != 0 {
			t.Fatalf("locate(%d) = %+v, want root", h, p)
		}
	}
}

func TestMappingLocateAfterSplits(t *testing.T) {
	// Split root: 0@1 and 1@1. Then split 1@1: 1@2 and 3@2.
	m := mappingOf(refMapping{0: 1, 1: 2, 3: 2})
	cases := []struct {
		h    uint64
		want partitionID
	}{
		{0b000, partitionID{0, 1}},
		{0b010, partitionID{0, 1}},
		{0b001, partitionID{1, 2}},
		{0b101, partitionID{1, 2}},
		{0b011, partitionID{3, 2}},
		{0b111, partitionID{3, 2}},
	}
	for _, c := range cases {
		if got := m.locate(c.h); got != c.want {
			t.Fatalf("locate(%03b) = %+v, want %+v", c.h, got, c.want)
		}
	}
}

func TestLocateTotalProperty(t *testing.T) {
	// After any valid split sequence, every hash locates exactly one live
	// partition whose index matches the hash's low bits.
	f := func(seed int64, nSplits uint8) bool {
		r := rand.New(rand.NewSource(seed))
		m := newMapping()
		for s := 0; s < int(nSplits%40); s++ {
			// Pick a random live partition to split.
			var keys []uint64
			for k := range m {
				if _, ok := m.get(uint64(k)); ok {
					keys = append(keys, uint64(k))
				}
			}
			k := keys[r.Intn(len(keys))]
			d, _ := m.get(k)
			if d >= maxDepth {
				continue
			}
			m.set(k, d+1)
			m.set(k|1<<uint(d), d+1)
		}
		for i := 0; i < 200; i++ {
			h := r.Uint64()
			p := m.locate(h)
			if d, ok := m.get(p.Index); !ok || d != p.Depth {
				return false
			}
			if h&((1<<uint(p.Depth))-1) != p.Index {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCreateStormCompletesAllFiles(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.SplitThreshold = 100
	res := CreateStorm(cfg, 8, 4000)
	if res.Files != 4000 {
		t.Fatalf("Files = %d, want 4000", res.Files)
	}
	if res.CreatesPerSecond <= 0 {
		t.Fatalf("throughput = %v", res.CreatesPerSecond)
	}
	if res.Splits == 0 || res.Partitions < 4 {
		t.Fatalf("directory never split: %+v", res)
	}
}

// TestEverySplitMakesAPartition: a split turns one partition into two,
// so a directory that started as one partition holds Splits+1. At split
// threshold 2 with 64 clients on 4 servers, partitions split while
// inserts located before the split still wait in the server queues;
// those inserts must not split them again.
func TestEverySplitMakesAPartition(t *testing.T) {
	for _, sync := range []bool{false, true} {
		cfg := DefaultConfig(4)
		cfg.SplitThreshold = 2
		cfg.SyncInvalidate = sync
		res := CreateStorm(cfg, 64, 4000)
		if res.Splits != int64(res.Partitions)-1 {
			t.Errorf("SyncInvalidate %v: %d splits for %d partitions, want partitions-1", sync, res.Splits, res.Partitions)
		}
	}
}

func TestThroughputScalesWithServers(t *testing.T) {
	// Figure 7: near-linear create throughput scaling.
	// Enough clients to keep the largest configuration server-bound.
	through := func(servers int) float64 {
		cfg := DefaultConfig(servers)
		cfg.SplitThreshold = 200
		return CreateStorm(cfg, 128, 40000).CreatesPerSecond
	}
	t1, t4, t16 := through(1), through(4), through(16)
	if t4 < 2*t1 {
		t.Fatalf("4 servers %.0f/s, want >= 2x 1 server %.0f/s", t4, t1)
	}
	if t16 < 2.2*t4 {
		t.Fatalf("16 servers %.0f/s, want >= 2.2x 4 servers %.0f/s", t16, t4)
	}
}

func TestGigaBeatsSingleServerBaseline(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.SplitThreshold = 200
	giga := CreateStorm(cfg, 32, 20000)
	base := SingleServerBaseline(cfg.InsertTime, cfg.RPC, 32, 20000)
	if giga.CreatesPerSecond < 3*base.CreatesPerSecond {
		t.Fatalf("GIGA+ %.0f/s should be >= 3x single server %.0f/s",
			giga.CreatesPerSecond, base.CreatesPerSecond)
	}
}

func TestAddressingErrorsBoundedAndLazy(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.SplitThreshold = 100
	res := CreateStorm(cfg, 16, 8000)
	if res.AddressingErrors == 0 {
		t.Fatal("expected some addressing errors from stale maps")
	}
	// GIGA+ guarantee: stale maps cost a small bounded number of extra
	// hops; across the run they must be a modest fraction of creates.
	if frac := float64(res.AddressingErrors) / float64(res.Files); frac > 0.5 {
		t.Fatalf("addressing errors = %.2f of creates, want bounded", frac)
	}
}

func TestLazyBeatsSyncInvalidation(t *testing.T) {
	// The ablation: synchronous invalidation makes every client pay for
	// every split; lazy stale maps are strictly cheaper.
	lazy := DefaultConfig(8)
	lazy.SplitThreshold = 100
	syn := lazy
	syn.SyncInvalidate = true
	lr := CreateStorm(lazy, 16, 8000)
	sr := CreateStorm(syn, 16, 8000)
	if lr.CreatesPerSecond <= sr.CreatesPerSecond {
		t.Fatalf("lazy %.0f/s should beat sync-invalidate %.0f/s",
			lr.CreatesPerSecond, sr.CreatesPerSecond)
	}
}

func TestLoadBalancedAcrossServers(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.SplitThreshold = 100
	res := CreateStorm(cfg, 16, 16000)
	if res.LoadImbalance > 3 {
		t.Fatalf("load imbalance = %.2f, want < 3", res.LoadImbalance)
	}
}

func TestDeterministicStorm(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.SplitThreshold = 100
	a := CreateStorm(cfg, 8, 2000)
	b := CreateStorm(cfg, 8, 2000)
	if a.Elapsed != b.Elapsed || a.Splits != b.Splits {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	NewDir(sim.NewEngine(), Config{})
}

func TestHashNameStable(t *testing.T) {
	if hashName("foo") != hashName("foo") {
		t.Fatal("hash not stable")
	}
	if hashName("foo") == hashName("bar") {
		t.Fatal("suspicious collision on trivial inputs")
	}
	// The inline FNV-1a is hash/fnv's New64a, on a name as a string and
	// as the bytes a create stream builds it in.
	r := rand.New(rand.NewSource(1))
	names := []string{"", "f.0.0", "f.63.624"}
	for i := 0; i < 200; i++ {
		b := make([]byte, r.Intn(40))
		r.Read(b)
		names = append(names, string(b))
	}
	for _, name := range names {
		h := fnv.New64a()
		h.Write([]byte(name))
		want := h.Sum64()
		if got := hashName(name); got != want {
			t.Fatalf("hashName(%q) = %#x, hash/fnv %#x", name, got, want)
		}
		if got := hashName([]byte(name)); got != want {
			t.Fatalf("hashName([]byte(%q)) = %#x, hash/fnv %#x", name, got, want)
		}
	}
}

func TestClientMergeConvergence(t *testing.T) {
	// A client starting with a stale root map converges to the truth with
	// bounded bounces even after many splits.
	eng := sim.NewEngine()
	cfg := DefaultConfig(4)
	cfg.SplitThreshold = 10
	dir := NewDir(eng, cfg)
	warm := dir.NewClient()
	// Grow the directory with one client.
	var grow func(k int)
	grow = func(k int) {
		if k == 500 {
			return
		}
		warm.Create(fmt.Sprintf("w%d", k), func() { grow(k + 1) })
	}
	grow(0)
	eng.Run()
	if dir.Partitions() < 8 {
		t.Fatalf("directory did not grow: %d partitions", dir.Partitions())
	}
	// New client with only the root in its map.
	cold := &Client{dir: dir, m: newMapping()}
	dir.clients = append(dir.clients, cold)
	did := 0
	var create func(k int)
	create = func(k int) {
		if k == 50 {
			return
		}
		did++
		cold.Create(fmt.Sprintf("c%d", k), func() { create(k + 1) })
	}
	create(0)
	eng.Run()
	if did != 50 {
		t.Fatalf("cold client completed %d creates", did)
	}
	// Bounded hops: far fewer than maxDepth per create on average.
	if cold.Bounces > int64(50*6) {
		t.Fatalf("cold client bounced %d times for 50 creates", cold.Bounces)
	}
}

// TestDenseMappingMatchesReference grows a directory's map by random
// splits and brings stale client maps up to date by merges of the
// partitions their lookups miss, on the dense mapping and on the map
// reference side by side. Both must hold the same entries after every
// step, and locate must name the same partition for every hash tried.
func TestDenseMappingMatchesReference(t *testing.T) {
	f := func(seed int64, nSplits uint8, staleAt uint8) bool {
		r := rand.New(rand.NewSource(seed))
		truth, refTruth := newMapping(), refMapping{0: 0}
		var stale mapping
		var refStale refMapping
		splits := int(nSplits % 120)
		for s := 0; s < splits; s++ {
			if s == int(staleAt)%splits {
				stale, refStale = truth.clone(), refTruth.clone()
			}
			// Split the partition a random hash lands in.
			p := refTruth.locate(r.Uint64())
			if p.Depth >= maxDepth {
				continue
			}
			child := p.Index | 1<<uint(p.Depth)
			truth.set(p.Index, p.Depth+1)
			truth.set(child, p.Depth+1)
			refTruth[p.Index] = p.Depth + 1
			refTruth[child] = p.Depth + 1
			if !sameEntries(truth, refTruth) {
				return false
			}
		}
		if stale == nil {
			stale, refStale = newMapping(), refMapping{0: 0}
		}
		c, rc := &Client{m: stale}, &refClient{m: refStale}
		for i := 0; i < 300; i++ {
			h := r.Uint64()
			if truth.locate(h) != refTruth.locate(h) || c.m.locate(h) != rc.m.locate(h) {
				return false
			}
			if actual := refTruth.locate(h); c.m.locate(h) != actual {
				c.merge(actual)
				rc.merge(actual)
				if !sameEntries(c.m, rc.m) || c.m.locate(h) != actual {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// sameStorm compares two create-storm results field by field, floats by
// their bits.
func sameStorm(a, b CreateStormResult) bool {
	bits := func(x float64) uint64 { return math.Float64bits(x) }
	return a.Servers == b.Servers && a.Clients == b.Clients && a.Files == b.Files &&
		bits(float64(a.Elapsed)) == bits(float64(b.Elapsed)) &&
		bits(a.CreatesPerSecond) == bits(b.CreatesPerSecond) &&
		a.Partitions == b.Partitions && a.Splits == b.Splits &&
		a.AddressingErrors == b.AddressingErrors &&
		bits(a.LoadImbalance) == bits(b.LoadImbalance)
}

// TestCreateStormMatchesReference runs CreateStorm and
// SingleServerBaseline next to the closure-and-map code they replaced,
// kept in giga_reference_test.go, over fixed and generated directory
// sizes with lazy and synchronous invalidation. Every event is scheduled
// at the same time and in the same order on both sides, so every field
// must match exactly.
func TestCreateStormMatchesReference(t *testing.T) {
	type storm struct {
		servers, threshold, clients, files int
		sync                               bool
	}
	check := func(s storm) bool {
		cfg := DefaultConfig(s.servers)
		cfg.SplitThreshold = s.threshold
		cfg.SyncInvalidate = s.sync
		got, want := CreateStorm(cfg, s.clients, s.files), refCreateStorm(cfg, s.clients, s.files)
		if !sameStorm(got, want) {
			t.Errorf("%+v: CreateStorm %+v, reference %+v", s, got, want)
			return false
		}
		got = SingleServerBaseline(cfg.InsertTime, cfg.RPC, s.clients, s.files)
		want = refSingleServerBaseline(cfg.InsertTime, cfg.RPC, s.clients, s.files)
		if !sameStorm(got, want) {
			t.Errorf("%+v: SingleServerBaseline %+v, reference %+v", s, got, want)
			return false
		}
		return true
	}
	for _, s := range []storm{
		{8, 200, 64, 4000, false}, // fig 7's shape at a tenth of its files
		{32, 200, 64, 4000, false},
		{1, 2, 1, 500, false},
		{4, 2, 64, 4000, true},
		{8, 100, 16, 4000, true}, // the giga stale-map ablation's shape
		{3, 7, 5, 999, false},
		{16, 400, 64, 63, false}, // fewer files than clients: nothing runs
	} {
		check(s)
	}
	f := func(servers, clients uint8, threshold, files uint16, sync bool) bool {
		return check(storm{
			servers:   1 + int(servers)%32,
			threshold: 2 + int(threshold)%399,
			clients:   1 + int(clients)%64,
			files:     int(files) % 4001,
			sync:      sync,
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestCreateStormAllocsDoNotGrow pins a create at about zero
// allocations: each client's stream reuses one createOp and one name
// buffer, and the partition maps are dense tables that only grow when
// the directory does. Comparing 40,000 files with 4,000 cancels the
// set-up; what is left over the extra creates is what a create
// allocates.
func TestCreateStormAllocsDoNotGrow(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.SplitThreshold = 200
	const small, large = 4000, 40000
	for _, tc := range []struct {
		name string
		run  func(files int)
	}{
		{"CreateStorm", func(files int) { CreateStorm(cfg, 64, files) }},
		{"SingleServerBaseline", func(files int) { SingleServerBaseline(cfg.InsertTime, cfg.RPC, 64, files) }},
	} {
		allocs := func(files int) float64 {
			return testing.AllocsPerRun(1, func() { tc.run(files) })
		}
		perCreate := (allocs(large) - allocs(small)) / (large - small)
		t.Logf("%s: %.4f allocations per extra create", tc.name, perCreate)
		if perCreate >= 0.05 {
			t.Errorf("%s: %.4f allocations per extra create, want under 0.05", tc.name, perCreate)
		}
	}
}

// BenchmarkCreateStorm runs Figure 7's sweep, GIGA+ on 1 to 32 servers
// and the single-server baseline, at the figure's sizes.
func BenchmarkCreateStorm(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, s := range []int{1, 2, 4, 8, 16, 32} {
			cfg := DefaultConfig(s)
			cfg.SplitThreshold = 200
			CreateStorm(cfg, 64, 40000)
		}
		cfg := DefaultConfig(1)
		SingleServerBaseline(cfg.InsertTime, cfg.RPC, 64, 40000)
	}
}
