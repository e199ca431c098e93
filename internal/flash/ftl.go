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

// Device is a simulated SSD. All times are per-operation latencies at the
// flash chip; Channels models internal parallelism applied to sequential
// (striped) transfers.
//
// Its state is flat and holds no pointer: one owner entry per physical
// page, numbered as mapping's values are (block*PagesPerBlock + page),
// and one live count, state and erase count per block. A stale,
// unwritten or erased page's owner is -1, so a block enters the free
// pool already clean and leaves it with nothing to reset.
type Device struct {
	Spec Spec
	*Counts

	mapping    []int32 // logical page -> physical page, -1 if unwritten
	owner      []int32 // physical page -> logical page it holds, -1 if stale or unwritten
	valid      []int32 // live pages per block
	state      []BlockState
	erases     []int32 // per-block wear
	freeBlocks []int32 // stack of erased block indices, the first pool in use
	open       int     // block taking programs (host and GC), -1 if none
	next       int     // the open block's write point
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
		mapping:    make([]int32, spec.UserPages),
		owner:      make([]int32, nblocks*spec.PagesPerBlock),
		valid:      make([]int32, nblocks),
		state:      make([]BlockState, nblocks),
		erases:     make([]int32, nblocks),
		freeBlocks: make([]int32, nblocks),
		open:       -1,
	}
	for i := range d.freeBlocks {
		d.freeBlocks[i] = int32(i)
	}
	for _, table := range [][]int32{d.mapping, d.owner} {
		for i := range table {
			table[i] = -1
		}
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
func (d *Device) WritePage(lpn int) sim.Time { return d.WritePages(lpn, 1, 0) }

// WritePages writes logical pages lpn..lpn+n-1, in that order, and
// returns lat plus each page's latency (program, and any garbage
// collection run inline before it), added one page at a time. The sum
// is therefore the same float64 as adding WritePage's results page by
// page onto lat, which is what lets a caller split a run, say at the
// end of a wrapping log, and carry lat across the split.
//
// A run is programmed one open-block segment at a time. Only a
// segment's first page can find the open block full, so only there can
// GC run, and that page's stale copy is released before GC reads the
// live counts, as a single-page write releases it. The segment's other
// stale copies are released after GC, as each page is programmed.
func (d *Device) WritePages(lpn, n int, lat sim.Time) sim.Time {
	if lpn < 0 || n < 0 || lpn > d.Spec.UserPages-n {
		panic(fmt.Sprintf("flash: write of lpns [%d, %d) out of range", lpn, lpn+n))
	}
	ppb := d.Spec.PagesPerBlock
	for end := lpn + n; lpn < end; {
		var gc sim.Time
		if d.open < 0 || d.next == ppb {
			d.unmap(lpn)
			// GC may itself leave d.open pointing at a block with free
			// pages; ensureOpenSlot reuses it rather than orphaning it.
			gc = d.ensureFreeBlock()
			d.ensureOpenSlot()
		}
		seg := min(end-lpn, ppb-d.next)
		lat = d.program(lpn, seg, lat, gc+d.Spec.TProg)
		lpn += seg
	}
	return lat
}

// unmap releases lpn's stale copy: its page is no longer owned, its
// block holds one live page fewer, and lpn maps nowhere until it is
// programmed again.
func (d *Device) unmap(lpn int) {
	if old := d.mapping[lpn]; old >= 0 {
		d.owner[old] = -1
		d.valid[int(old)/d.Spec.PagesPerBlock]--
		d.mapping[lpn] = -1
	}
}

// program writes logical pages lpn..lpn+seg-1 at the open block's write
// point, which has room for them all, releasing each page's stale copy
// as it goes. It adds first, the first page's latency, and then TProg
// per further page onto lat. A run's stale copies usually sit together
// in one block, so a block's live count is lowered once for each
// stretch of them it holds, not once per page.
func (d *Device) program(lpn, seg int, lat, first sim.Time) sim.Time {
	ppb32, tprog := int32(d.Spec.PagesPerBlock), d.Spec.TProg
	owner, valid := d.owner, d.valid
	ppn := d.open*d.Spec.PagesPerBlock + d.next
	owners, maps := owner[ppn:ppn+seg], d.mapping[lpn:lpn+seg]
	var blk, lo, hi, stale int32 // block of the stale copies being counted, its pages [lo, hi)
	step := first
	for i := range owners {
		if old := maps[i]; old >= 0 {
			owner[old] = -1
			if old < lo || old >= hi {
				valid[blk] -= stale
				blk = old / ppb32
				lo, hi, stale = blk*ppb32, blk*ppb32+ppb32, 0
			}
			stale++
		}
		owners[i] = int32(lpn + i)
		maps[i] = int32(ppn + i)
		lat += step
		step = tprog
	}
	valid[blk] -= stale
	valid[d.open] += int32(seg)
	d.next += seg
	d.HostWrites += int64(seg)
	return lat
}

// ensureOpenSlot guarantees d.open names a block with at least one free
// page, retiring the current open block to BlockFull and drawing a
// replacement from the free pool when needed. It is the only place a block
// enters or leaves the open state, which keeps exactly one block open at a
// time — orphaned open blocks would silently leak physical space.
func (d *Device) ensureOpenSlot() {
	if d.open >= 0 && d.next < d.Spec.PagesPerBlock {
		return
	}
	if d.open >= 0 {
		d.state[d.open] = BlockFull
	}
	d.open = d.popFree()
	d.state[d.open] = BlockOpen
	d.next = 0
}

// popFree takes a block off the free stack. An erased block owns no
// page and has no live count, so there is nothing to reset.
func (d *Device) popFree() int {
	if d.pool == 0 {
		panic("flash: free-block pool exhausted (spare area too small for GC reserve)")
	}
	d.pool--
	return int(d.freeBlocks[d.pool])
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
// lowest index first on ties, skipping any block with no reclaimable
// space — erasing a fully-valid block costs a block to rehouse its pages
// and gains nothing, so it can never make progress. The open block is
// never full. Returns -1 if no useful victim exists.
func (d *Device) pickVictim() int {
	best, bestValid := -1, int32(d.Spec.PagesPerBlock)
	for i, v := range d.valid {
		if v < bestValid && d.state[i] == BlockFull {
			best, bestValid = i, v
			if bestValid == 0 {
				break // no later block can hold fewer
			}
		}
	}
	return best
}

// collect relocates the victim's valid pages into the open block stream
// and erases the victim. The walk stops at the last live page, so a
// victim a sequential log has already overwritten costs no walk at all.
func (d *Device) collect(victim int) sim.Time {
	var elapsed sim.Time
	d.collections++
	ppb := d.Spec.PagesPerBlock
	pages := d.owner[victim*ppb : victim*ppb+ppb]
	for p, live := 0, d.valid[victim]; live > 0; p++ {
		lpn := pages[p]
		if lpn < 0 {
			continue
		}
		live--
		pages[p] = -1
		// Read the live page and program it into the open block. If the
		// open block is exhausted we must draw from the free pool; GC is
		// guaranteed progress because the victim frees a whole block.
		elapsed += d.Spec.TRead
		d.ensureOpenSlot()
		ppn := d.open*ppb + d.next
		d.owner[ppn] = lpn
		d.next++
		d.valid[d.open]++
		d.mapping[lpn] = int32(ppn)
		d.Relocations++
		elapsed += d.Spec.TProg
	}
	// Erase the victim and return it to the pool.
	d.state[victim] = BlockFree
	d.valid[victim] = 0
	d.erases[victim]++
	d.maxWear = max(d.maxWear, int(d.erases[victim]))
	d.Erases++
	d.freeBlocks[d.pool] = int32(victim)
	d.pool++
	return elapsed + d.Spec.TErase
}

// CheckInvariants validates internal FTL consistency; tests call it after
// workloads. It returns an error describing the first violation found.
func (d *Device) CheckInvariants() error {
	ppb := d.Spec.PagesPerBlock
	// Every mapped logical page must point at a physical page that claims it.
	mapped := 0
	for lpn, ppn := range d.mapping {
		if ppn < 0 {
			continue
		}
		mapped++
		if int(ppn) >= len(d.owner) {
			return fmt.Errorf("lpn %d maps to out-of-range ppn %d", lpn, ppn)
		}
		if got := d.owner[ppn]; int(got) != lpn {
			return fmt.Errorf("lpn %d maps to ppn %d but block records lpn %d", lpn, ppn, got)
		}
	}
	live := 0
	for b, v := range d.valid {
		if v > int32(ppb) {
			return fmt.Errorf("block %d valid=%d exceeds %d pages per block", b, v, ppb)
		}
		count := 0
		for p, lpn := range d.owner[b*ppb : b*ppb+ppb] {
			if lpn < 0 {
				continue
			}
			switch {
			case d.state[b] == BlockFree:
				return fmt.Errorf("free block %d owns lpn %d at page %d", b, lpn, p)
			case b == d.open && p >= d.next:
				return fmt.Errorf("open block %d owns lpn %d at page %d, past its write point %d", b, lpn, p, d.next)
			}
			count++
		}
		if count != int(v) {
			return fmt.Errorf("block %d valid=%d but %d live pages", b, v, count)
		}
		live += count
	}
	// Every live page is some mapped page's only copy.
	if live != mapped {
		return fmt.Errorf("blocks hold %d live pages but %d logical pages are mapped", live, mapped)
	}
	// Free list blocks must be marked free.
	for _, idx := range d.freeBlocks[:d.pool] {
		if d.state[idx] != BlockFree {
			return fmt.Errorf("free-list block %d has state %d", idx, d.state[idx])
		}
	}
	// At most one block may be open, and it must be d.open; anything else
	// is a leak of physical space.
	for b, st := range d.state {
		if st == BlockOpen && b != d.open {
			return fmt.Errorf("block %d open but d.open = %d (leaked open block)", b, d.open)
		}
	}
	return nil
}
