package flash

import (
	"math/rand"
	"strings"
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
	valid := int32(0)
	for _, v := range d.valid {
		valid += v
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
	avg := float64(d.Erases) / float64(len(d.valid))
	if max := float64(d.MaxWear()); max > avg*6+4 {
		t.Fatalf("max wear %v vs average %v: pathological imbalance", max, avg)
	}
}

// moveTo remaps lpn to physical page ppn and keeps the live counts of
// both blocks consistent, so that only a check on where a block may
// hold pages can see the move.
func moveTo(d *Device, lpn, ppn int) {
	old := d.mapping[lpn]
	d.owner[old] = -1
	d.valid[int(old)/d.Spec.PagesPerBlock]--
	d.owner[ppn] = int32(lpn)
	d.valid[ppn/d.Spec.PagesPerBlock]++
	d.mapping[lpn] = int32(ppn)
}

// TestCheckInvariantsSeesCorruption corrupts a device that has run GC,
// one way per check, and requires CheckInvariants to name that check.
// Only the first corruption would also break a live count.
func TestCheckInvariantsSeesCorruption(t *testing.T) {
	aged := func() *Device {
		d := NewDevice(smallSpec())
		r := rand.New(rand.NewSource(5))
		for i := 0; i < d.Spec.UserPages*3; i++ {
			d.WritePage(r.Intn(d.Spec.UserPages))
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if d.Erases == 0 || d.next == d.Spec.PagesPerBlock {
			t.Fatalf("aged device has no collected block or a full open block: %+v", *d.Counts)
		}
		return d
	}
	// stalePage finds a stale page in a full block.
	stalePage := func(d *Device) int {
		for ppn, lpn := range d.owner {
			if b := ppn / d.Spec.PagesPerBlock; lpn < 0 && d.state[b] == BlockFull {
				return ppn
			}
		}
		t.Fatal("no stale page in a full block")
		return -1
	}
	for _, tc := range []struct {
		name, want string
		corrupt    func(d *Device)
	}{
		{"live count over the block size", "exceeds", func(d *Device) {
			d.valid[d.open] = int32(d.Spec.PagesPerBlock + 1)
		}},
		{"free block owns a page", "free block", func(d *Device) {
			moveTo(d, 3, int(d.freeBlocks[d.pool-1])*d.Spec.PagesPerBlock)
		}},
		{"open block owns a page past its write point", "past its write point", func(d *Device) {
			moveTo(d, 3, d.open*d.Spec.PagesPerBlock+d.next)
		}},
		{"live pages outnumber mapped pages", "logical pages are mapped", func(d *Device) {
			// A second copy of lpn 3 that the mapping does not name, with
			// its block's count kept consistent.
			ppn := stalePage(d)
			d.owner[ppn] = 3
			d.valid[ppn/d.Spec.PagesPerBlock]++
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := aged()
			tc.corrupt(d)
			err := d.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), tc.want) { //lint:allow errwrap -- only the message names which check failed
				t.Fatalf("CheckInvariants = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
