// Package flash models a NAND solid-state disk at the flash translation
// layer (FTL): page-level logical-to-physical mapping, append-only
// programming into open erase blocks, a pool of pre-erased blocks, and
// greedy garbage collection that relocates live pages before erasing a
// victim block.
//
// This is the mechanism behind two findings of the report's flash studies
// (Figure 11, Figure 14, WISH'09): random reads are phenomenally faster
// than magnetic disk, and sustained random writing is fast only until the
// pre-erased pool drains, after which the true cost of garbage collection
// shows through as roughly an order of magnitude slowdown — with the
// severity governed by the device's overprovisioned spare area.
package flash

import (
	"fmt"

	"repro/internal/sim"
)

// BlockState tracks an erase block's lifecycle.
type BlockState uint8

// Erase block lifecycle states.
const (
	BlockFree BlockState = iota // erased, ready to program
	BlockOpen                   // partially programmed
	BlockFull                   // fully programmed
)

type block struct {
	state    BlockState
	nextPage int   // next free page index within the block
	valid    int   // count of still-live pages
	pages    []int // logical page stored at each physical page, -1 if stale/unused
	erases   int   // wear counter
}

// Device is a simulated SSD. All times are per-operation latencies at the
// flash chip; Channels models internal parallelism applied to sequential
// (striped) transfers.
type Device struct {
	Spec Spec
	*Counts

	blocks     []block
	mapping    []int32 // logical page -> physical page number, -1 if unwritten
	freeBlocks []int   // stack of erased block indices, the first pool in use
	open       int     // currently open block for host writes, -1 if none
}

// Counts is a device's activity and the two levels its gauges report.
// It is allocated apart from the Device, so the registry's functions,
// which outlive a run, keep only the counts alive (see obs.go).
type Counts struct {
	HostWrites  int64 // pages written by the host
	HostReads   int64
	Relocations int64 // pages moved by GC
	Erases      int64

	collections int64 // GC victim collections
	pool        int   // erased blocks on the free stack
	maxWear     int   // highest per-block erase count
}

// Spec is a device description. Presets matching Table 1 of the report are
// in presets.go.
type Spec struct {
	Name          string
	PageSize      int64   // bytes, typically 4096
	PagesPerBlock int     // typically 64-128
	UserPages     int     // logical (host-visible) capacity in pages
	SpareFraction float64 // overprovisioning: physical = user * (1+spare)
	TRead         sim.Time
	TProg         sim.Time
	TErase        sim.Time
	Channels      int // parallel channels for striped sequential transfers

	// GCLowWater is the free-block count that triggers garbage collection;
	// a small number models the drained pre-erased pool.
	GCLowWater int
}

// NewDevice builds a freshly formatted (fully erased) device.
func NewDevice(spec Spec) *Device {
	if spec.PageSize <= 0 || spec.PagesPerBlock <= 0 || spec.UserPages <= 0 {
		panic(fmt.Sprintf("flash: invalid spec %+v", spec))
	}
	if spec.Channels < 1 {
		spec.Channels = 1
	}
	if spec.GCLowWater < 1 {
		spec.GCLowWater = 2
	}
	physPages := int(float64(spec.UserPages) * (1 + spec.SpareFraction))
	nblocks := (physPages + spec.PagesPerBlock - 1) / spec.PagesPerBlock
	if nblocks < spec.GCLowWater+2 {
		nblocks = spec.GCLowWater + 2
	}
	d := &Device{
		Spec:       spec,
		Counts:     &Counts{pool: nblocks},
		blocks:     make([]block, nblocks),
		mapping:    make([]int32, spec.UserPages),
		freeBlocks: make([]int, nblocks),
		open:       -1,
	}
	for i := range d.blocks {
		d.blocks[i].pages = make([]int, spec.PagesPerBlock)
		for j := range d.blocks[i].pages {
			d.blocks[i].pages[j] = -1
		}
		d.freeBlocks[i] = i
	}
	for i := range d.mapping {
		d.mapping[i] = -1
	}
	return d
}

// FreeBlocks reports the size of the pre-erased pool.
func (c *Counts) FreeBlocks() int { return c.pool }

// MaxWear returns the highest per-block erase count (for wear tests).
func (c *Counts) MaxWear() int { return c.maxWear }

// WriteAmplification is total pages programmed divided by host pages
// written; 1.0 means GC never relocated anything.
func (c *Counts) WriteAmplification() float64 {
	if c.HostWrites == 0 {
		return 1
	}
	return float64(c.HostWrites+c.Relocations) / float64(c.HostWrites)
}

// ReadPage returns the latency to read logical page lpn.
func (d *Device) ReadPage(lpn int) sim.Time {
	if lpn < 0 || lpn >= d.Spec.UserPages {
		panic(fmt.Sprintf("flash: read lpn %d out of range", lpn))
	}
	d.HostReads++
	return d.Spec.TRead
}

// WritePage writes logical page lpn and returns the total latency of the
// operation, including any garbage collection performed inline. This
// foreground-GC accounting is what produces the sustained-random-write
// cliff: a fresh device never GCs, a dirty one pays relocations on the
// host's critical path.
func (d *Device) WritePage(lpn int) sim.Time {
	if lpn < 0 || lpn >= d.Spec.UserPages {
		panic(fmt.Sprintf("flash: write lpn %d out of range", lpn))
	}
	var elapsed sim.Time

	// Invalidate the stale copy.
	if old := d.mapping[lpn]; old >= 0 {
		b := int(old) / d.Spec.PagesPerBlock
		p := int(old) % d.Spec.PagesPerBlock
		d.blocks[b].pages[p] = -1
		d.blocks[b].valid--
	}

	// Ensure an open block with a free page. GC may run first and may
	// itself leave d.open pointing at a block with free pages; ensureOpenSlot
	// reuses it rather than orphaning it.
	if d.open < 0 || d.blocks[d.open].nextPage == d.Spec.PagesPerBlock {
		elapsed += d.ensureFreeBlock()
		d.ensureOpenSlot()
	}

	b := &d.blocks[d.open]
	ppn := d.open*d.Spec.PagesPerBlock + b.nextPage
	b.pages[b.nextPage] = lpn
	b.nextPage++
	b.valid++
	d.mapping[lpn] = int32(ppn)
	d.HostWrites++
	return elapsed + d.Spec.TProg
}

// ensureOpenSlot guarantees d.open names a block with at least one free
// page, retiring the current open block to BlockFull and drawing a
// replacement from the free pool when needed. It is the only place a block
// enters or leaves the open state, which keeps exactly one block open at a
// time — orphaned open blocks would silently leak physical space.
func (d *Device) ensureOpenSlot() {
	if d.open >= 0 && d.blocks[d.open].nextPage < d.Spec.PagesPerBlock {
		return
	}
	if d.open >= 0 {
		d.blocks[d.open].state = BlockFull
	}
	d.open = d.popFree()
	d.blocks[d.open].state = BlockOpen
}

func (d *Device) popFree() int {
	if d.pool == 0 {
		panic("flash: free-block pool exhausted (spare area too small for GC reserve)")
	}
	d.pool--
	idx := d.freeBlocks[d.pool]
	blk := &d.blocks[idx]
	blk.nextPage = 0
	blk.valid = 0
	for j := range blk.pages {
		blk.pages[j] = -1
	}
	return idx
}

// ensureFreeBlock runs greedy GC until the free pool is above the low-water
// mark, returning the time spent relocating and erasing.
func (d *Device) ensureFreeBlock() sim.Time {
	var elapsed sim.Time
	for d.pool < d.Spec.GCLowWater {
		victim := d.pickVictim()
		if victim < 0 {
			break // nothing reclaimable; device is pathologically full
		}
		elapsed += d.collect(victim)
	}
	return elapsed
}

// pickVictim chooses the full block with the fewest valid pages (greedy),
// skipping the open block and any block with no reclaimable space — erasing
// a fully-valid block costs a block to rehouse its pages and gains nothing,
// so it can never make progress. Returns -1 if no useful victim exists.
func (d *Device) pickVictim() int {
	best, bestValid := -1, d.Spec.PagesPerBlock
	for i := range d.blocks {
		b := &d.blocks[i]
		if b.state != BlockFull || i == d.open {
			continue
		}
		if b.valid < bestValid {
			best, bestValid = i, b.valid
		}
	}
	return best
}

// collect relocates the victim's valid pages into the GC's own open block
// stream and erases the victim.
func (d *Device) collect(victim int) sim.Time {
	var elapsed sim.Time
	d.collections++
	vb := &d.blocks[victim]
	for p := 0; p < d.Spec.PagesPerBlock; p++ {
		lpn := vb.pages[p]
		if lpn < 0 {
			continue
		}
		// Read the live page and program it into the open block. If the
		// open block is exhausted we must draw from the free pool; GC is
		// guaranteed progress because the victim frees a whole block.
		elapsed += d.Spec.TRead
		d.ensureOpenSlot()
		ob := &d.blocks[d.open]
		ppn := d.open*d.Spec.PagesPerBlock + ob.nextPage
		ob.pages[ob.nextPage] = lpn
		ob.nextPage++
		ob.valid++
		d.mapping[lpn] = int32(ppn)
		d.Relocations++
		elapsed += d.Spec.TProg
	}
	// Erase the victim and return it to the pool.
	vb.state = BlockFree
	vb.valid = 0
	vb.nextPage = 0
	for j := range vb.pages {
		vb.pages[j] = -1
	}
	vb.erases++
	d.maxWear = max(d.maxWear, vb.erases)
	d.Erases++
	d.freeBlocks[d.pool] = victim
	d.pool++
	return elapsed + d.Spec.TErase
}

// CheckInvariants validates internal FTL consistency; tests call it after
// workloads. It returns an error describing the first violation found.
func (d *Device) CheckInvariants() error {
	// Every mapped logical page must point at a physical page that claims it.
	for lpn, ppn := range d.mapping {
		if ppn < 0 {
			continue
		}
		b := int(ppn) / d.Spec.PagesPerBlock
		p := int(ppn) % d.Spec.PagesPerBlock
		if b >= len(d.blocks) {
			return fmt.Errorf("lpn %d maps to out-of-range block %d", lpn, b)
		}
		if got := d.blocks[b].pages[p]; got != lpn {
			return fmt.Errorf("lpn %d maps to ppn %d but block records lpn %d", lpn, ppn, got)
		}
	}
	// Valid counters must match page arrays.
	for i := range d.blocks {
		count := 0
		for _, lpn := range d.blocks[i].pages {
			if lpn >= 0 {
				count++
			}
		}
		if count != d.blocks[i].valid {
			return fmt.Errorf("block %d valid=%d but %d live pages", i, d.blocks[i].valid, count)
		}
	}
	// Free list blocks must be marked free.
	for _, idx := range d.freeBlocks[:d.pool] {
		if d.blocks[idx].state != BlockFree {
			return fmt.Errorf("free-list block %d has state %d", idx, d.blocks[idx].state)
		}
	}
	// At most one block may be open, and it must be d.open; anything else
	// is a leak of physical space.
	for i := range d.blocks {
		if d.blocks[i].state == BlockOpen && i != d.open {
			return fmt.Errorf("block %d open but d.open = %d (leaked open block)", i, d.open)
		}
	}
	return nil
}
