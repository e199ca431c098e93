package flash

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

var benchLat sim.Time

// BenchmarkFTLLogAppend is the burst buffer's write pattern: one op is
// a 64-page (256 KiB) run appended at a cursor that wraps over the
// logical space of a FusionIO device, so the log keeps overwriting its
// oldest pages and GC erases blocks it has already emptied.
func BenchmarkFTLLogAppend(b *testing.B) {
	const run = 64
	d := NewDevice(FusionIODuo())
	up, cursor := d.Spec.UserPages, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		head := min(run, up-cursor)
		lat := d.WritePages(cursor, head, 0)
		if head < run {
			lat = d.WritePages(0, run-head, lat)
		}
		cursor = (cursor + run) % up
		benchLat = lat
	}
}

// BenchmarkFTLRandomWrite is Figure 14's pattern: one op is a 4 KiB
// write to a uniformly random page of an Intel X25-M, whose small spare
// area makes GC relocate live pages once the pre-erased pool drains.
func BenchmarkFTLRandomWrite(b *testing.B) {
	d := NewDevice(IntelX25M())
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchLat = d.WritePage(r.Intn(d.Spec.UserPages))
	}
}
