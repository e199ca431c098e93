package flash

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// FuzzFTL decodes its input into an op program and runs it on Device and
// on refDevice, the per-page FTL Device replaced. The first byte picks
// the spec: smallSpec (8 pages per block, so runs cross many blocks and
// GC runs often) or FusionIODuo, the burst buffer's log device. Each op
// is three bytes, an opcode and a 16-bit argument a:
//
//	0  write page a
//	1  append a run of 1+a pages at a log cursor, split where it passes
//	   the last page and carrying the latency over, as bb's program does
//	2  read page a
//	3  overwrite the whole device sequentially, as one run
//	4  move the log cursor to page a
//
// Ops past the first maxFTLOps are ignored, which keeps each input, and
// the fuzzer's minimization of it, cheap.
//
// After every op the two devices must return the same float64 latency
// and hold the same mapping, page owners, block states, live and erase
// counts and Counts, and Device must pass CheckInvariants. The seed
// corpus is in testdata/fuzz/FuzzFTL.
func FuzzFTL(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		spec := smallSpec()
		if prog[0]&1 == 1 {
			spec = FusionIODuo()
		}
		prog = prog[1:]
		d, ref := NewDevice(spec), newRefDevice(spec)
		up := spec.UserPages
		cursor := 0
		for step := 0; step < maxFTLOps && len(prog) >= 3; step++ {
			op, a := prog[0]%5, int(prog[1])|int(prog[2])<<8
			prog = prog[3:]
			var got, want sim.Time
			switch op {
			case 0:
				got, want = d.WritePage(a%up), ref.WritePage(a%up)
			case 1:
				n := 1 + a%up
				head := min(n, up-cursor)
				got = d.WritePages(cursor, head, 0)
				if head < n {
					got = d.WritePages(0, n-head, got)
				}
				for i := 0; i < n; i++ {
					want += ref.WritePage((cursor + i) % up)
				}
				cursor = (cursor + n) % up
			case 2:
				got, want = d.ReadPage(a%up), ref.ReadPage(a%up)
			case 3:
				got = d.WritePages(0, up, 0)
				for lpn := 0; lpn < up; lpn++ {
					want += ref.WritePage(lpn)
				}
			case 4:
				cursor = a % up
			}
			if got != want {
				t.Fatalf("op %d (%d, %d): latency %v s, reference %v s", step, op, a, float64(got), float64(want))
			}
			if err := sameFTL(d, ref); err != nil {
				t.Fatalf("op %d (%d, %d): %v", step, op, a, err)
			}
			if err := d.CheckInvariants(); err != nil {
				t.Fatalf("op %d (%d, %d): %v", step, op, a, err)
			}
		}
	})
}

const maxFTLOps = 256

// sameFTL compares a Device's state with the reference's.
func sameFTL(d *Device, ref *refDevice) error {
	if *d.Counts != *ref.Counts {
		return fmt.Errorf("counts %+v, reference %+v", *d.Counts, *ref.Counts)
	}
	for lpn, ppn := range ref.mapping {
		if d.mapping[lpn] != ppn {
			return fmt.Errorf("lpn %d maps to %d, reference %d", lpn, d.mapping[lpn], ppn)
		}
	}
	if d.open != ref.open || (d.open >= 0 && d.next != ref.blocks[d.open].nextPage) {
		return fmt.Errorf("open block %d at page %d, reference %d", d.open, d.next, ref.open)
	}
	ppb := d.Spec.PagesPerBlock
	for b := range ref.blocks {
		rb := &ref.blocks[b]
		if d.state[b] != rb.state || int(d.valid[b]) != rb.valid || int(d.erases[b]) != rb.erases {
			return fmt.Errorf("block %d: state %d valid %d erases %d, reference %d %d %d",
				b, d.state[b], d.valid[b], d.erases[b], rb.state, rb.valid, rb.erases)
		}
		for p, lpn := range rb.pages {
			if int(d.owner[b*ppb+p]) != lpn {
				return fmt.Errorf("block %d page %d owned by lpn %d, reference %d", b, p, d.owner[b*ppb+p], lpn)
			}
		}
	}
	for i, b := range ref.freeBlocks[:ref.pool] {
		if int(d.freeBlocks[i]) != b {
			return fmt.Errorf("free stack slot %d holds block %d, reference %d", i, d.freeBlocks[i], b)
		}
	}
	return nil
}
