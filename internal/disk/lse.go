package disk

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// This file models the failures that do not announce themselves: latent
// sector errors and bit rot. The PDSI report's reliability studies (and
// the LSE field study they cite) show sectors silently going bad between
// the write that stored them and the read that needs them — discovered
// only if someone checks. The model is deliberately stateful rather than
// byte-level: the striped-FS simulation above carries no payload, so a
// corruption is a fact about an extent ("bytes [off,off+len) on this
// drive are rotten since time t"), consulted by the integrity layer on
// every read and cleared when a repair rewrites the extent. The zero-cost
// rule holds: a nil *Corruptor answers every query negatively without
// allocating, so fault-free runs are untouched.

// CorruptionMode distinguishes how an extent went bad.
type CorruptionMode int

const (
	// MediaError is classic bit rot / a latent sector error: one sector
	// unreadable or silently wrong.
	MediaError CorruptionMode = iota

	// TornWrite is a multi-sector write that only partially reached the
	// medium — adjacent sectors are stale or garbage.
	TornWrite
)

func (m CorruptionMode) String() string {
	switch m {
	case MediaError:
		return "media-error"
	case TornWrite:
		return "torn-write"
	default:
		return fmt.Sprintf("CorruptionMode(%d)", int(m))
	}
}

// CorruptionEvent is one latent corruption: the byte range [Offset,
// Offset+Length) on a drive is silently wrong from time At onward, until
// some repair rewrites it. Events are plain data drawn ahead of the run
// (see failure.DrawLSE), so the whole corruption trajectory is
// deterministic per seed.
type CorruptionEvent struct {
	Offset, Length int64
	At             sim.Time
	Mode           CorruptionMode
}

// overlaps reports whether the event intersects [off, off+size).
func (e CorruptionEvent) overlaps(off, size int64) bool {
	return off < e.Offset+e.Length && e.Offset < off+size
}

// Corruptor tracks latent corruption for one drive. It is pure state: the
// caller (the integrity layer in internal/pfs) decides what a hit means —
// detected and repaired when checksums are on, silently returned to the
// application when they are off. All methods are nil-safe no-ops so the
// fault-free path costs nothing.
type Corruptor struct {
	events   []CorruptionEvent
	repaired []bool
}

// NewCorruptor returns a Corruptor armed with the given events (copied;
// sorted by arrival time for deterministic iteration). Nil or empty
// events return a valid Corruptor that never reports corruption.
func NewCorruptor(events []CorruptionEvent) *Corruptor {
	evs := append([]CorruptionEvent(nil), events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	for _, e := range evs {
		if e.Offset < 0 || e.Length <= 0 || e.At < 0 {
			panic(fmt.Sprintf("disk: invalid corruption event %+v", e))
		}
	}
	return &Corruptor{
		events:   evs,
		repaired: make([]bool, len(evs)),
	}
}

// Add arms one more event at run time — how a torn burst-buffer drain
// lands corruption discovered mid-simulation rather than drawn ahead of
// it. The event is inserted in arrival order so the sorted-by-At
// invariant every query relies on still holds; an event whose At has
// already passed is legal and becomes visible to the next query.
// Invalid events panic exactly as NewCorruptor's do.
func (c *Corruptor) Add(e CorruptionEvent) {
	if e.Offset < 0 || e.Length <= 0 || e.At < 0 {
		panic(fmt.Sprintf("disk: invalid corruption event %+v", e))
	}
	i := sort.Search(len(c.events), func(i int) bool { return c.events[i].At > e.At })
	c.events = append(c.events, CorruptionEvent{})
	c.repaired = append(c.repaired, false)
	copy(c.events[i+1:], c.events[i:])
	copy(c.repaired[i+1:], c.repaired[i:])
	c.events[i] = e
	c.repaired[i] = false
}

// FaultIn reports whether any unrepaired corruption that has arrived by
// now overlaps the read [off, off+size). Nil receivers report false.
func (c *Corruptor) FaultIn(off, size int64, now sim.Time) bool {
	if c == nil || len(c.events) == 0 || size <= 0 {
		return false
	}
	for i, e := range c.events {
		if e.At > now {
			break
		}
		if !c.repaired[i] && e.overlaps(off, size) {
			return true
		}
	}
	return false
}

// Repair clears every arrived, unrepaired event overlapping [off,
// off+size) — the rewrite that a checksum-triggered reconstruction or a
// scrub pass performs — and returns how many events it cleared.
func (c *Corruptor) Repair(off, size int64, now sim.Time) int {
	if c == nil || len(c.events) == 0 || size <= 0 {
		return 0
	}
	n := 0
	for i, e := range c.events {
		if e.At > now {
			break
		}
		if !c.repaired[i] && e.overlaps(off, size) {
			c.repaired[i] = true
			n++
		}
	}
	return n
}

// Unrepaired counts events that have arrived by now and not been
// repaired — the drive's live latent corruption.
func (c *Corruptor) Unrepaired(now sim.Time) int {
	if c == nil {
		return 0
	}
	n := 0
	for i, e := range c.events {
		if e.At > now {
			break
		}
		if !c.repaired[i] {
			n++
		}
	}
	return n
}
