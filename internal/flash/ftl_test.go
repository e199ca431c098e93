package flash

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func smallSpec() Spec {
	return Spec{
		Name:          "test",
		PageSize:      4096,
		PagesPerBlock: 8,
		UserPages:     256,
		SpareFraction: 0.25,
		TRead:         sim.Time(25e-6),
		TProg:         sim.Time(200e-6),
		TErase:        sim.Time(1.5e-3),
		Channels:      1,
		GCLowWater:    2,
	}
}

func TestFreshDeviceWritesWithoutGC(t *testing.T) {
	d := NewDevice(smallSpec())
	for i := 0; i < 64; i++ {
		if got := d.WritePage(i); got != d.Spec.TProg {
			t.Fatalf("fresh write %d cost %v, want pure program %v", i, got, d.Spec.TProg)
		}
	}
	if d.Relocations != 0 || d.Erases != 0 {
		t.Fatalf("fresh device GCed: reloc=%d erases=%d", d.Relocations, d.Erases)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOverwriteInvalidatesOldPage(t *testing.T) {
	d := NewDevice(smallSpec())
	d.WritePage(5)
	d.WritePage(5)
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The open block should hold exactly one valid copy of lpn 5.
	valid := 0
	for i := range d.blocks {
		valid += d.blocks[i].valid
	}
	if valid != 1 {
		t.Fatalf("device holds %d valid pages after overwrite, want 1", valid)
	}
}

func TestGCTriggersWhenPoolDrains(t *testing.T) {
	d := NewDevice(smallSpec())
	r := rand.New(rand.NewSource(1))
	// Random-write 4x the logical capacity; GC must have run.
	for i := 0; i < d.Spec.UserPages*4; i++ {
		d.WritePage(r.Intn(d.Spec.UserPages))
	}
	if d.Erases == 0 {
		t.Fatal("no erases after 4x-capacity random writes")
	}
	if d.WriteAmplification() <= 1.0 {
		t.Fatalf("write amplification = %v, want > 1 under random writes", d.WriteAmplification())
	}
	if d.FreeBlocks() < 1 {
		t.Fatalf("free pool exhausted: %d", d.FreeBlocks())
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialOverwriteHasLowAmplification(t *testing.T) {
	d := NewDevice(smallSpec())
	// Write the device sequentially three full times. Sequential
	// invalidation empties whole blocks, so GC victims are nearly free.
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < d.Spec.UserPages; i++ {
			d.WritePage(i)
		}
	}
	if wa := d.WriteAmplification(); wa > 1.3 {
		t.Fatalf("sequential write amplification = %v, want near 1", wa)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomWorseThanSequentialAmplification(t *testing.T) {
	seqD := NewDevice(smallSpec())
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < seqD.Spec.UserPages; i++ {
			seqD.WritePage(i)
		}
	}
	randD := NewDevice(smallSpec())
	r := rand.New(rand.NewSource(2))
	for i := 0; i < randD.Spec.UserPages*4; i++ {
		randD.WritePage(r.Intn(randD.Spec.UserPages))
	}
	if randD.WriteAmplification() <= seqD.WriteAmplification() {
		t.Fatalf("random WA %v should exceed sequential WA %v",
			randD.WriteAmplification(), seqD.WriteAmplification())
	}
}

func TestMappingAlwaysConsistentProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		d := NewDevice(smallSpec())
		for _, op := range ops {
			d.WritePage(int(op) % d.Spec.UserPages)
		}
		return d.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	d := NewDevice(smallSpec())
	for _, fn := range []func(){
		func() { d.WritePage(-1) },
		func() { d.WritePage(d.Spec.UserPages) },
		func() { d.ReadPage(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range op did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestSustainedRandomWriteDegrades(t *testing.T) {
	// The Figure 14 / WISH'09 result: sustained random write starts near the
	// fresh rate and degrades sharply once the pre-erased pool depletes.
	res := SustainedRandomWrite(IntelX25M(), 1.0, 60, 1, 99, nil, "")
	if len(res) < 5 {
		t.Fatalf("too few windows: %d", len(res))
	}
	first, last := res[0].IOPS, res[len(res)-1].IOPS
	if ratio := first / last; ratio < 3 {
		t.Fatalf("low-spare device degraded only %.1fx (first %.0f last %.0f IOPS), want >= 3x",
			ratio, first, last)
	}
}

func TestHighOverprovisionDegradesLess(t *testing.T) {
	degradation := func(spec Spec) float64 {
		res := SustainedRandomWrite(spec, 1.0, 60, 1, 99, nil, "")
		return res[0].IOPS / res[len(res)-1].IOPS
	}
	sata := degradation(IntelX25M())
	pcie := degradation(RamSan20())
	if pcie >= sata {
		t.Fatalf("high-spare device degradation %.1fx should be below low-spare %.1fx", pcie, sata)
	}
}

func TestFlashRandomReadsBeatDiskByOrders(t *testing.T) {
	// Report: "random read throughput is phenomenally higher than magnetic
	// disks (which are closer to 100 IOPS)".
	for _, spec := range AllTable1Devices() {
		iops := RandomReadRate(spec, 2000, 3)
		if iops < 5000 {
			t.Fatalf("%s random read IOPS = %.0f, want >> disk's ~100", spec.Name, iops)
		}
	}
}

func TestTable1OrderingHolds(t *testing.T) {
	// PCIe devices should beat SATA devices on read IOPS, as in Table 1.
	sata := RandomReadRate(IntelX25M(), 2000, 3)
	pcie := RandomReadRate(ViridentTachION(), 2000, 3)
	if pcie < 4*sata {
		t.Fatalf("PCIe read IOPS %.0f should dwarf SATA %.0f", pcie, sata)
	}
}

func TestFreshVsSteadyWriteRate(t *testing.T) {
	fresh := FreshRandomWriteRate(IntelX25M(), 5)
	steady := SteadyRandomWriteRate(IntelX25M(), 5)
	if steady >= fresh {
		t.Fatalf("steady write rate %.0f should trail fresh %.0f", steady, fresh)
	}
	// Report: "the true cost of random writes shows through as 10 times
	// slower". Allow a broad band around that.
	if ratio := fresh / steady; ratio < 2.5 {
		t.Fatalf("fresh/steady = %.1f, want a pronounced cliff", ratio)
	}
}

func TestSequentialWriteRateNearSpecBandwidth(t *testing.T) {
	spec := FusionIODuo()
	got := SequentialWriteRate(spec)
	want := float64(spec.PageSize) * float64(spec.Channels) / float64(spec.TProg)
	if got < want*0.6 || got > want*1.01 {
		t.Fatalf("sequential write rate %.0f B/s, want near %.0f", got, want)
	}
}

func TestWearStaysBounded(t *testing.T) {
	d := NewDevice(smallSpec())
	r := rand.New(rand.NewSource(4))
	for i := 0; i < d.Spec.UserPages*10; i++ {
		d.WritePage(r.Intn(d.Spec.UserPages))
	}
	// Greedy GC with a free-list stack isn't perfect wear leveling, but no
	// block should be erased wildly more than the average.
	avg := float64(d.Erases) / float64(len(d.blocks))
	if max := float64(d.MaxWear()); max > avg*6+4 {
		t.Fatalf("max wear %v vs average %v: pathological imbalance", max, avg)
	}
}
