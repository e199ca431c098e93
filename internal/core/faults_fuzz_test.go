package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// maxFaultOps bounds a FuzzWriterFaults program; later ops are ignored.
const maxFaultOps = 64

// faultWrite is one WriteAt of a FuzzWriterFaults program.
type faultWrite struct {
	w      int
	off    int64
	data   []byte
	landed bool // its data append landed whole (WriteAt returned len(data))
	acked  bool
}

// FuzzWriterFaults runs one to three writers of one container over a
// FaultyBackend and checks what a restart reads back. The first input
// byte is the config: bit 0 selects the framed v2 format, bit 1
// CoalesceIndex, bits 2-3 Retry.MaxRetries (0 to 3), and the high four
// bits v give the writer count, 1 + v%3. Each op is two bytes, an
// opcode byte k and an argument a; writer (k>>3)%writers issues the
// writer ops:
//
//	0  WriteAt 1+a bytes at the end of everything written so far
//	1  leave a hole of a bytes before the next write
//	2  Sync
//	3  Close
//	4  arm FailNextWrites = a%5
//	5  arm PartialBytes = a
//	6  arm FailCreates = a%3
//	7  WriteAt 1+4a bytes, like op 0
//
// Writes never overlap, and a writer's consecutive writes are
// contiguous in the file and in its log, so coalescing merges them.
// Writers still open at the end are closed. The oracle then reopens the
// container on the fault-free backend, strictly and, for v2, under
// VerifyOnOpen:
//
//   - an acknowledged byte reads back exactly. A write is acknowledged
//     when WriteAt returns nil, and with coalescing only once a later
//     Sync or Close of its writer returns nil too;
//   - every other byte reads as zero or as its own write's byte;
//   - the writers' DroppedBytes sum equals the bytes FaultyBackend tore:
//     the data logs hold exactly the landed records and the dropped
//     bytes, and the v2 verify pass finds them as torn tails and nothing
//     else;
//   - no WriteAt makes more than 2·(MaxRetries+2) appends (its data
//     record and a flushed index entry), and no Sync or Close more than
//     MaxRetries+2 (one attempt under the zero policy).
//
// The seed corpus in testdata/fuzz/FuzzWriterFaults holds one program
// per hand-picked case: a data append torn under the zero policy (v1
// and v2), a torn v2 frame whose failover cannot create its logs, a
// 20-byte tear armed against a coalesced index append, a failed Sync
// followed by a second Sync, two writers failing over and tearing with
// coalescing on, three v1 writers under three retries, and three
// fault-free v2 writers.
func FuzzWriterFaults(f *testing.F) {
	pattern := make([]byte, 2048)
	rand.New(rand.NewSource(2)).Read(pattern)
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		cfg := prog[0]
		opts := Options{
			NumHostdirs:   2,
			Framed:        cfg&1 != 0,
			CoalesceIndex: cfg&2 != 0,
			Retry:         RetryPolicy{MaxRetries: int(cfg>>2) & 3},
		}
		attempts := 1
		if opts.Retry.MaxRetries > 0 {
			attempts = opts.Retry.MaxRetries + 2
		}
		mb := NewMemBackend()
		fb := NewFaultyBackend(mb)
		c, err := CreateContainer(fb, "/c", opts)
		if err != nil {
			t.Fatal(err)
		}
		ws := make([]*Writer, 1+int(cfg>>4)%3)
		for i := range ws {
			if ws[i], err = c.OpenWriter(int32(i)); err != nil {
				t.Fatal(err)
			}
		}
		var writes []*faultWrite
		// unsynced holds each writer's writes that await a Sync or Close
		// returning nil.
		unsynced := make([][]*faultWrite, len(ws))
		settle := func(w int, err error) {
			if err == nil {
				for _, x := range unsynced[w] {
					x.acked = true
				}
				unsynced[w] = nil
			}
		}
		bounded := func(n int, what string, before int) {
			if d := fb.Writes - before; d > n {
				t.Fatalf("%s made %d appends, want at most %d", what, d, n)
			}
		}
		var end int64
		ops := prog[1:]
		for n := 0; len(ops) >= 2 && n < maxFaultOps; n++ {
			k, a := int(ops[0]), int(ops[1])
			ops = ops[2:]
			w := (k >> 3) % len(ws)
			before := fb.Writes
			switch k & 7 {
			case 0, 7:
				size := 1 + a
				if k&7 == 7 {
					size = 1 + 4*a
				}
				x := &faultWrite{w: w, off: end, data: pattern[n*37%1024:][:size]}
				end += int64(size)
				writes = append(writes, x)
				got, err := ws[w].WriteAt(x.data, x.off)
				bounded(2*attempts, "WriteAt", before)
				x.landed = got == size
				switch {
				case err != nil:
				case opts.CoalesceIndex:
					unsynced[w] = append(unsynced[w], x)
				default:
					x.acked = true
				}
			case 1:
				end += int64(a)
			case 2:
				err := ws[w].Sync()
				bounded(attempts, "Sync", before)
				settle(w, err)
			case 3:
				err := ws[w].Close()
				bounded(attempts, "Close", before)
				settle(w, err)
			case 4:
				fb.FailNextWrites = a % 5
			case 5:
				fb.PartialBytes = a
			case 6:
				fb.FailCreates = a % 3
			}
		}
		var dropped int64
		for w := range ws {
			settle(w, ws[w].Close())
			dropped += ws[w].FaultStats().DroppedBytes
		}

		var landed int64
		for _, x := range writes {
			if x.landed {
				landed += int64(len(x.data))
				if opts.Framed {
					landed += frameOverhead
				}
			}
		}
		logs := dataLogBytes(t, mb, opts.NumHostdirs) // before the verify pass truncates torn tails
		checkFaultReadBack(t, mb, Options{NumHostdirs: opts.NumHostdirs}, writes, end)
		if opts.Framed {
			rep := checkFaultReadBack(t, mb, Options{NumHostdirs: opts.NumHostdirs, VerifyOnOpen: true}, writes, end)
			if rep.TornBytes != dropped || rep.QuarantinedExtents != 0 || rep.RecordsDropped != 0 {
				t.Fatalf("verify pass %+v, want %d torn bytes and nothing else", *rep, dropped)
			}
		}
		if logs != landed+dropped {
			t.Fatalf("data logs hold %d bytes, want %d landed + %d dropped", logs, landed, dropped)
		}
	})
}

// dataLogBytes sums the sizes of the container's data logs.
func dataLogBytes(t *testing.T, b Backend, hostdirs int) int64 {
	t.Helper()
	var total int64
	for i := 0; i < hostdirs; i++ {
		hd := fmt.Sprintf("/c/%s%d", hostdirPrefix, i)
		names, err := b.ReadDir(hd)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if !strings.HasPrefix(name, dataPrefix) {
				continue
			}
			f, err := b.Open(hd + "/" + name)
			if err != nil {
				t.Fatal(err)
			}
			total += f.Size()
			f.Close()
		}
	}
	return total
}

// checkFaultReadBack reopens the container with opts and checks every
// byte of [0, end) against the writes: exact where acknowledged, zero or
// the write's own byte elsewhere, zero in the holes. It returns the
// verify pass's report (nil without VerifyOnOpen).
func checkFaultReadBack(t *testing.T, b Backend, opts Options, writes []*faultWrite, end int64) *FsckReport {
	t.Helper()
	c, err := OpenContainer(b, "/c", opts)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.OpenReader()
	if err != nil {
		t.Fatalf("open (verify %v): %v", opts.VerifyOnOpen, err)
	}
	defer r.Close()
	got := make([]byte, end)
	if _, err := r.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatalf("read (verify %v): %v", opts.VerifyOnOpen, err)
	}
	var hole int64
	for i, x := range writes {
		for ; hole < x.off; hole++ {
			if got[hole] != 0 {
				t.Fatalf("verify %v: hole byte %d reads %#x, want 0", opts.VerifyOnOpen, hole, got[hole])
			}
		}
		hole = x.off + int64(len(x.data))
		g := got[x.off:hole]
		if x.acked {
			if !bytes.Equal(g, x.data) {
				t.Fatalf("verify %v: acknowledged write %d (writer %d, %d bytes at %d) reads back other bytes",
					opts.VerifyOnOpen, i, x.w, len(x.data), x.off)
			}
			continue
		}
		for j, v := range g {
			if v != 0 && v != x.data[j] {
				t.Fatalf("verify %v: byte %d of unacknowledged write %d (writer %d at %d) reads %#x, want 0 or %#x",
					opts.VerifyOnOpen, j, i, x.w, x.off, v, x.data[j])
			}
		}
	}
	return r.FsckReport()
}
