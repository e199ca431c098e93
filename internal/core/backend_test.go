package core

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

// memOps encodes a FuzzMemFile op sequence, so seeds read as the
// operations they run. Each op is one opcode byte and 3-byte
// little-endian arguments, decoded modulo the file's current size as
// FuzzMemFile describes; the encoders below pick arguments inside
// those ranges so each seed runs exactly the ops it names.
type memOps []byte

func (o memOps) arg(v int) memOps { return append(o, byte(v), byte(v>>8), byte(v>>16)) }

func (o memOps) write(n int) memOps        { return append(o, 0).arg(n) }
func (o memOps) read(off, n int) memOps    { return append(o, 1).arg(off + 1).arg(n) }
func (o memOps) truncate(size int) memOps  { return append(o, 2).arg(size) }
func (o memOps) corrupt(off, n int) memOps { return append(o, 3).arg(off).arg(n) }
func (o memOps) size() memOps              { return append(o, 4) }

// Limits of FuzzMemFile's decoded ops.
const (
	fuzzMaxWrite = 3 << 20 // one Write; crosses the 1 MiB chunk cap
	fuzzMaxFile  = 8 << 20 // the file; larger writes are skipped
	fuzzMaxRead  = 2 << 20 // one ReadAt or CorruptRange length
	fuzzPastEOF  = 1 << 17 // how far past EOF a ReadAt may start
	fuzzMaxOps   = 64
)

// FuzzMemFile drives one MemBackend file through Write, ReadAt,
// Truncate, CorruptRange and Size, and checks every result against a
// flat []byte model: the bytes, the counts and io.EOF must match what
// one growing slice gives, across the first chunk, later chunk
// boundaries and the chunk size cap.
func FuzzMemFile(f *testing.F) {
	f.Add([]byte(memOps{}.write(memFirstChunk-1).write(2).read(memFirstChunk-5, 10).size()))
	f.Add([]byte(memOps{}.write(fuzzMaxWrite).
		read(memMaxChunk-5, 10).                   // across a capped chunk's end
		read(60000, 2<<20).                        // across several chunks
		read(fuzzMaxWrite-4, 100).                 // short read at EOF
		read(fuzzMaxWrite+10, 5).                  // past EOF
		corrupt(memMaxChunk-100, memMaxChunk+200). // across three chunks
		read(memMaxChunk-200, memMaxChunk+400)))
	f.Add([]byte(memOps{}.write(47016).write(47016).write(47016).write(47016).
		truncate(100000).      // into the middle of a chunk
		write(300000).         // refills it, then a new chunk
		corrupt(45000, 10000). // across the first chunk's end
		read(90000, 320000).   // across every later chunk, to EOF
		read(200000, 1000).    // inside the chunk the write added
		truncate(50000).       // below 64 KiB, in the second chunk
		write(1000).           // must not grow the first chunk
		read(49000, 3000).     // across the first chunk's end
		write(200000).         // allocates past the dropped chunks
		read(120000, 1000).    // inside the chunk it added
		size()))
	f.Add([]byte(memOps{}.write(memFirstChunk).write(10).
		truncate(memFirstChunk). // exactly at a chunk boundary
		write(5).read(memFirstChunk-6, 20).
		truncate(0).write(100).read(0, 100).size()))
	f.Add([]byte(memOps{}.write(1000).
		read(-1, 4).      // negative offset
		read(1000, 0).    // empty read at EOF
		read(999, 0).     // empty read before EOF
		truncate(1001).   // past the end
		corrupt(999, 2).  // past the end
		write(0).size())) // empty write
	// Writes take their bytes from one random pattern at a shift that
	// varies by op, and reads share one buffer, so an op costs its copies
	// and no per-byte loop.
	pattern := make([]byte, fuzzMaxWrite+256)
	rand.New(rand.NewSource(1)).Read(pattern)
	rbuf := make([]byte, fuzzMaxRead)
	f.Fuzz(func(t *testing.T, ops []byte) {
		b := NewMemBackend()
		h, err := b.Create("/f")
		if err != nil {
			t.Fatal(err)
		}
		var model []byte
		arg := func() int {
			v := 0
			for i := 0; i < 3 && i < len(ops); i++ {
				v |= int(ops[i]) << (8 * i)
			}
			ops = ops[min(3, len(ops)):]
			return v
		}
		for n := 0; len(ops) > 0 && n < fuzzMaxOps; n++ {
			op := ops[0] % 5
			ops = ops[1:]
			switch op {
			case 0: // Write
				size := arg() % (fuzzMaxWrite + 1)
				if len(model)+size > fuzzMaxFile {
					continue
				}
				p := pattern[n*37%256:][:size]
				if got, err := h.Write(p); got != size || err != nil {
					t.Fatalf("op %d: Write(%d) = %d, %v", n, size, got, err)
				}
				model = append(model, p...)
			case 1: // ReadAt
				off := int64(arg()%(len(model)+fuzzPastEOF+1)) - 1
				p := rbuf[:arg()%(fuzzMaxRead+1)]
				clear(p)
				got, err := h.ReadAt(p, off)
				want, wantErr := modelReadAt(model, len(p), off)
				if got != len(want) || !bytes.Equal(p[:got], want) || (err == nil) != (wantErr == nil) || (err == io.EOF) != (wantErr == io.EOF) {
					t.Fatalf("op %d: ReadAt(%d bytes, %d) = %d, %v; model %d, %v", n, len(p), off, got, err, len(want), wantErr)
				}
			case 2: // Truncate
				size := int64(arg() % (len(model) + 2))
				err := h.(Truncator).Truncate(size)
				if valid := size <= int64(len(model)); valid != (err == nil) {
					t.Fatalf("op %d: Truncate(%d) of %d bytes: %v", n, size, len(model), err)
				}
				if err == nil {
					model = model[:size]
				}
			case 3: // CorruptRange
				off := int64(arg() % (len(model) + 1))
				cn := int64(arg() % (fuzzMaxRead + 1))
				err := b.CorruptRange("/f", off, cn)
				if valid := off+cn <= int64(len(model)); valid != (err == nil) {
					t.Fatalf("op %d: CorruptRange(%d, %d) of %d bytes: %v", n, off, cn, len(model), err)
				}
				if err == nil {
					for i := off; i < off+cn; i++ {
						model[i] ^= 0x80
					}
				}
			case 4: // Size
				if got := h.Size(); got != int64(len(model)) {
					t.Fatalf("op %d: Size = %d, model %d", n, got, len(model))
				}
			}
			checkChunks(t, b.files["/f"])
		}
		all := make([]byte, len(model))
		if got, err := h.ReadAt(all, 0); got != len(model) || (err != nil && err != io.EOF) || !bytes.Equal(all, model) {
			t.Fatalf("final read-back: %d of %d bytes, %v, match %v", got, len(model), err, bytes.Equal(all, model))
		}
	})
}

// modelReadAt is ReadAt on one flat slice, as MemBackend files behaved
// before they were chunked: the bytes read, and io.EOF whenever fewer
// than n were available.
func modelReadAt(model []byte, n int, off int64) ([]byte, error) {
	switch {
	case off < 0:
		return nil, io.ErrUnexpectedEOF // any error but io.EOF
	case off >= int64(len(model)):
		return nil, io.EOF
	}
	got := model[off:min(off+int64(n), int64(len(model)))]
	if len(got) < n {
		return got, io.EOF
	}
	return got, nil
}

// checkChunks asserts the chunk list's invariants: chunks are contiguous
// from offset 0 and sum to the size, every chunk but the last is full,
// and no chunk past the first exceeds the cap.
func checkChunks(t *testing.T, f *memFile) {
	t.Helper()
	if len(f.starts) != len(f.chunks) {
		t.Fatalf("%d chunk starts for %d chunks", len(f.starts), len(f.chunks))
	}
	last := len(f.chunks) - 1
	for i, c := range f.chunks {
		if i < last && len(c) != cap(c) {
			t.Fatalf("chunk %d of %d holds %d of %d bytes", i, len(f.chunks), len(c), cap(c))
		}
		if i > 0 && (f.starts[i] != f.starts[i-1]+int64(len(f.chunks[i-1])) || cap(c) > memMaxChunk) {
			t.Fatalf("chunk %d starts at %d with cap %d after %d bytes from %d", i, f.starts[i], cap(c), len(f.chunks[i-1]), f.starts[i-1])
		}
	}
	if f.starts[0] != 0 || f.size != f.starts[last]+int64(len(f.chunks[last])) {
		t.Fatalf("chunks from %d end at %d, size %d", f.starts[0], f.starts[last]+int64(len(f.chunks[last])), f.size)
	}
}
