package failure

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/stats"
)

// streamSeeds covers math/rand's seed reduction edge cases (zero maps to
// a fixed seed, negatives wrap, multiples of 2^31-1 reduce to zero) and
// the seeds the rebuild figure actually uses: pod p's fault stream for
// server i is seeded 42+p*1_000_003+i, its LSE stream (seed^0x15e)+i.
var streamSeeds = []int64{
	0, -1, 1, int32max, 2 * int32max, 1 << 40, math.MaxInt64, math.MinInt64,
	42 + 0*1_000_003 + 0, 42 + 159*1_000_003 + 63, (42 + 37*1_000_003) ^ 0x15e + 5,
}

// TestStreamMatchesMathRand pins stream to math/rand's generator bit for
// bit: every draw method the fault and LSE draws use, plus the raw
// Uint64, over 1,300 values per seed (past two wraps of the 607-word
// register, so recycled feedback words are covered too). One stream is
// reused across every seed and method, which also proves reset leaves no
// state behind.
func TestStreamMatchesMathRand(t *testing.T) {
	const draws = 1300
	methods := []struct {
		name string
		draw func(r *rand.Rand) uint64
	}{
		{"Float64", func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) }},
		{"Int63n", func(r *rand.Rand) uint64 { return uint64(r.Int63n(1<<40 + 12345)) }},
		{"Intn", func(r *rand.Rand) uint64 { return uint64(r.Intn(7)) }},
		{"ExpFloat64", func(r *rand.Rand) uint64 { return math.Float64bits(r.ExpFloat64()) }},
		{"NormFloat64", func(r *rand.Rand) uint64 { return math.Float64bits(r.NormFloat64()) }},
		{"Uint64", func(r *rand.Rand) uint64 { return r.Uint64() }},
	}
	var st stream
	got := rand.New(&st)
	for _, seed := range streamSeeds {
		for _, m := range methods {
			want := rand.New(rand.NewSource(seed))
			st.reset(seed)
			for k := 0; k < draws; k++ {
				if a, b := m.draw(got), m.draw(want); a != b {
					t.Fatalf("seed %d %s draw %d: stream %#x, math/rand %#x", seed, m.name, k, a, b)
				}
			}
		}
	}
}

// drawOSSFaultsReference is DrawOSSFaultsDetailed as it was written
// against math/rand, one rand.NewSource per server: the reference the
// stream-backed draw must reproduce exactly.
func drawOSSFaultsReference(spec OSSFaultSpec, seed int64) (*sim.FaultPlan, BurstStats) {
	scale := spec.MTBF / stats.Weibull{Shape: spec.Shape, Scale: 1}.Mean()
	d := stats.Weibull{Shape: spec.Shape, Scale: scale}
	down := sim.Time(spec.Downtime)
	if down < 0 {
		down = 0
	}
	events := make([][]plannedEvent, spec.Servers)
	for i := 0; i < spec.Servers; i++ {
		r := rand.New(rand.NewSource(seed + int64(i)))
		for t := d.Sample(r); t < spec.Horizon; t += d.Sample(r) {
			events[i] = append(events[i], plannedEvent{at: sim.Time(t), down: down})
			if down <= 0 {
				break
			}
			t += spec.Downtime
		}
	}
	var bs BurstStats
	if spec.Bursts.MTBB > 0 {
		bs = drawBursts(spec, rand.New(rand.NewSource(seed^0x6273747273)), events)
	}
	plan := sim.NewFaultPlan()
	for i := 0; i < spec.Servers; i++ {
		for _, ev := range events[i] {
			plan.Add(fmt.Sprintf("oss%d", i), ev.at, ev.down)
		}
	}
	return plan, bs
}

// rebuildFigureSpec is the rebuild figure's per-pod fault spec: 64
// drives, accelerated permanent failures, correlated 3-drive bursts.
func rebuildFigureSpec() OSSFaultSpec {
	return OSSFaultSpec{
		Servers: 64, MTBF: 30, Shape: 1, Downtime: 0, Horizon: 4,
		Bursts: BurstSpec{MTBB: 2, Size: 3},
	}
}

func TestDrawOSSFaultsMatchesMathRandReference(t *testing.T) {
	recoverable := testSpec()
	recoverable.Servers = 50
	recoverable.Shape = 0.7
	recoverable.Bursts = BurstSpec{MTBB: 20, Size: 4, Downtime: 3}
	for _, spec := range []OSSFaultSpec{rebuildFigureSpec(), recoverable, testSpec()} {
		for _, seed := range streamSeeds {
			plan, bs := DrawOSSFaultsDetailed(spec, seed)
			want, wantBS := drawOSSFaultsReference(spec, seed)
			if !reflect.DeepEqual(plan.Events(), want.Events()) || bs != wantBS {
				t.Fatalf("spec %+v seed %d: stream draw differs from math/rand reference\n got %v %+v\nwant %v %+v",
					spec, seed, plan.Events(), bs, want.Events(), wantBS)
			}
		}
	}
}

// drawLSEReference is DrawLSE as it was written against math/rand.
func drawLSEReference(spec LSESpec, seed int64) [][]disk.CorruptionEvent {
	const sector, maxTorn = 512, 8
	sectors := spec.CapacityBytes / sector
	if sectors < 1 {
		sectors = 1
	}
	scale := spec.MTBC / stats.Weibull{Shape: spec.Shape, Scale: 1}.Mean()
	d := stats.Weibull{Shape: spec.Shape, Scale: scale}
	out := make([][]disk.CorruptionEvent, spec.Disks)
	for i := 0; i < spec.Disks; i++ {
		r := rand.New(rand.NewSource(seed + int64(i)))
		var evs []disk.CorruptionEvent
		for t := d.Sample(r); t < spec.Horizon; t += d.Sample(r) {
			ev := disk.CorruptionEvent{
				Offset: r.Int63n(sectors) * sector,
				Length: sector,
				At:     sim.Time(t),
				Mode:   disk.MediaError,
			}
			if r.Float64() < spec.TornFraction {
				ev.Mode = disk.TornWrite
				ev.Length = sector * int64(2+r.Intn(maxTorn-1))
			}
			if ev.Offset+ev.Length > spec.CapacityBytes {
				ev.Offset = spec.CapacityBytes - ev.Length
			}
			evs = append(evs, ev)
		}
		out[i] = evs
	}
	return out
}

func TestDrawLSEMatchesMathRandReference(t *testing.T) {
	spec := lseSpec()
	spec.Disks = 64
	spec.Shape = 0.6
	spec.TornFraction = 0.4
	for _, seed := range streamSeeds {
		if got, want := DrawLSE(spec, seed), drawLSEReference(spec, seed); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: stream LSE draw differs from math/rand reference", seed)
		}
	}
}

// BenchmarkDrawOSSFaults draws one rebuild-figure pod's plan: 64
// per-drive streams plus the burst stream.
func BenchmarkDrawOSSFaults(b *testing.B) {
	spec := rebuildFigureSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DrawOSSFaultsDetailed(spec, 42+int64(i)*1_000_003)
	}
}
