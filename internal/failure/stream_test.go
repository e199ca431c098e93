package failure

import (
	"fmt"
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/stats"
)

// streamSeeds covers the edges of the int64 → uint64 seed conversion
// and the seeds the figures draw with: rebuild pods 0 and 159
// (42+p*1_000_003), the faults figure's 4242 and the integrity
// figure's 77.
var streamSeeds = []int64{
	0, -1, math.MinInt64, math.MaxInt64,
	42, 42 + 159*1_000_003, 4242, 77,
}

// fresh returns a new math/rand.Rand over a new PCG source seeded to
// stream (seed, i): the plain way to draw drive i, with nothing shared.
func fresh(seed int64, i uint64) *rand.Rand {
	return rand.New(&stats.Stream{PCG: *randv2.NewPCG(uint64(seed), i)})
}

// drawOSSFaultsReference is DrawOSSFaultsDetailed with a fresh
// math/rand.Rand and source per server and for the bursts. The draw
// reuses one reseeded stream and one rand.Rand over it, so equal plans
// show that reseeding leaves nothing behind from the previous server.
func drawOSSFaultsReference(spec OSSFaultSpec, seed int64) (*sim.FaultPlan, BurstStats) {
	scale := spec.MTBF / stats.Weibull{Shape: spec.Shape, Scale: 1}.Mean()
	d := stats.Weibull{Shape: spec.Shape, Scale: scale}
	down := sim.Time(spec.Downtime)
	if down < 0 {
		down = 0
	}
	events := make([][]plannedEvent, spec.Servers)
	for i := 0; i < spec.Servers; i++ {
		r := fresh(seed, uint64(i))
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
		bs = drawBursts(spec, fresh(seed, burstStream), events)
	}
	plan := sim.NewFaultPlan()
	for i := 0; i < spec.Servers; i++ {
		for _, ev := range events[i] {
			plan.Add(fmt.Sprintf("oss%d", i), ev.at, ev.down)
		}
	}
	return plan, bs
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
				t.Fatalf("spec %+v seed %d: draw differs from the fresh-source reference\n got %v %+v\nwant %v %+v",
					spec, seed, plan.Events(), bs, want.Events(), wantBS)
			}
		}
	}
}

// drawLSEReference is DrawLSE with a fresh math/rand.Rand and source
// per drive.
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
		r := fresh(seed, uint64(i))
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
			t.Fatalf("seed %d: LSE draw differs from the fresh-source reference", seed)
		}
	}
}
