package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// This file defines the v2 checksummed log format and plfsck, the
// container recovery pass. A v1 container appends raw 36-byte index
// records and raw payload bytes — fast, but a flipped bit or a torn
// append is invisible until the application reads garbage. A v2
// container frames every record: [u32 length][payload][u32 crc32c],
// little-endian, Castagnoli polynomial. Index frames are fixed-size
// (length always indexEntrySize, 44 bytes total) so a damaged frame
// never desynchronizes the walk; data frames are variable and walked
// sequentially. IndexEntry.LogOffset points at the *payload* start —
// frameHeaderSize past the frame — so the read path fetches data
// exactly as it does from a v1 log, paying nothing for framing until it
// chooses to verify. The container's version is negotiated through the
// access file ("plfs container v1\n" vs "v2\n"): v1 containers keep
// reading and writing byte-identically through the legacy path.
//
// plfsck is the recovery half: a sequential sweep of every log that
// drops index frames failing their checksum, truncates torn tails
// (when the backend file supports Truncator), and quarantines the
// payload ranges of data frames whose checksum fails — reads
// overlapping a quarantined range return ErrCorruptExtent instead of
// bytes the writer never wrote. It is wired into OpenReader behind
// Options.VerifyOnOpen and usable standalone via Fsck.

const (
	frameHeaderSize  = 4
	frameTrailerSize = 4
	frameOverhead    = frameHeaderSize + frameTrailerSize
	indexFrameSize   = frameOverhead + indexEntrySize
)

// castagnoli is the crc32c table (iSCSI/ext4 polynomial — the standard
// storage-integrity choice).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptFrame reports a log frame whose length or checksum failed
// verification (errors.Is-matchable under wrapped detail).
var ErrCorruptFrame = errors.New("plfs: corrupt log frame")

// ErrCorruptExtent reports a read overlapping a data extent that plfsck
// quarantined: its frame's checksum failed and the bytes cannot be
// trusted. Returned instead of fabricated data, never alongside it.
var ErrCorruptExtent = errors.New("plfs: extent quarantined by verification")

// appendFrame appends one [len][payload][crc32c] frame to dst.
func appendFrame(dst, payload []byte) []byte {
	var word [4]byte
	binary.LittleEndian.PutUint32(word[:], uint32(len(payload)))
	dst = append(dst, word[:]...)
	dst = append(dst, payload...)
	binary.LittleEndian.PutUint32(word[:], crc32.Checksum(payload, castagnoli))
	return append(dst, word[:]...)
}

// encodeEntryRecord serializes one index entry into rec in the
// container's log format and returns the encoded prefix of rec: a bare
// 36-byte record for v1, a 44-byte frame for v2. The frame is built in
// place, so encoding into a caller-owned array allocates nothing.
func encodeEntryRecord(rec *[indexFrameSize]byte, e IndexEntry, framed bool) []byte {
	if !framed {
		e.encode(rec[:])
		return rec[:indexEntrySize]
	}
	payload := rec[frameHeaderSize : frameHeaderSize+indexEntrySize]
	e.encode(payload)
	binary.LittleEndian.PutUint32(rec[:], indexEntrySize)
	binary.LittleEndian.PutUint32(rec[frameHeaderSize+indexEntrySize:], crc32.Checksum(payload, castagnoli))
	return rec[:]
}

// decodeFramedIndexLog walks buf as fixed-size index frames. In strict
// mode the first bad frame or short tail fails the whole decode with a
// typed error. In lenient (fsck) mode, frames failing their length or
// checksum, or whose record maps a range no WriteAt writes, are dropped
// (counted, skipped — the fixed frame size keeps the walk in sync) and
// a short tail is reported as torn; clean is the byte length of the
// well-framed prefix structure (everything before the torn tail).
func decodeFramedIndexLog(buf []byte, strict bool) (entries []IndexEntry, dropped, torn int64, err error) {
	n := int64(len(buf))
	entries = make([]IndexEntry, 0, n/indexFrameSize)
	off := int64(0)
	for ; off+indexFrameSize <= n; off += indexFrameSize {
		frame := buf[off : off+indexFrameSize]
		length := binary.LittleEndian.Uint32(frame[0:])
		payload := frame[frameHeaderSize : frameHeaderSize+indexEntrySize]
		want := binary.LittleEndian.Uint32(frame[frameHeaderSize+indexEntrySize:])
		e := decodeEntry(payload)
		if length != indexEntrySize || crc32.Checksum(payload, castagnoli) != want || !e.validRange() {
			if strict {
				return nil, 0, 0, fmt.Errorf("%w: index frame at %d", ErrCorruptFrame, off)
			}
			dropped++
			continue
		}
		entries = append(entries, e)
	}
	if off < n {
		if strict {
			return nil, 0, 0, fmt.Errorf("%w: torn index tail: %d trailing bytes", ErrCorruptFrame, n-off)
		}
		torn = n - off
	}
	return entries, dropped, torn, nil
}

// logRange is a half-open byte range within one data log.
type logRange struct {
	off, end int64
}

// verifyDataFrames walks buf as variable-size data frames, returning the
// payload ranges of frames failing their checksum (quarantined) and the
// length of the parseable prefix (clean). A header whose length field
// cannot fit in the remaining bytes ends the walk — everything from
// there is a torn tail, since a variable-size walk cannot resync past a
// damaged length.
func verifyDataFrames(buf []byte) (quarantined []logRange, frames int64, clean int64) {
	n := int64(len(buf))
	off := int64(0)
	for off+frameOverhead <= n {
		length := int64(binary.LittleEndian.Uint32(buf[off:]))
		if length <= 0 || off+frameOverhead+length > n {
			break
		}
		payload := buf[off+frameHeaderSize : off+frameHeaderSize+length]
		want := binary.LittleEndian.Uint32(buf[off+frameHeaderSize+length:])
		frames++
		if crc32.Checksum(payload, castagnoli) != want {
			quarantined = append(quarantined, logRange{
				off: off + frameHeaderSize,
				end: off + frameHeaderSize + length,
			})
		}
		off += frameOverhead + length
	}
	return quarantined, frames, off
}

// FsckReport summarizes one plfsck recovery pass over a container.
type FsckReport struct {
	// IndexLogs and DataLogs count logs scanned.
	IndexLogs, DataLogs int

	// FramesVerified counts frames whose checksum was checked (index and
	// data), RecordsDropped the index frames discarded for failing it.
	FramesVerified int64
	RecordsDropped int64

	// TornBytes counts trailing bytes cut (or, when the backend cannot
	// truncate, ignored) as torn appends — index and data tails.
	TornBytes int64

	// QuarantinedExtents counts data frames failing verification, and
	// QuarantinedBytes their total payload; reads overlapping them
	// return ErrCorruptExtent.
	QuarantinedExtents int
	QuarantinedBytes   int64
}

// clean reports whether the pass found nothing wrong.
func (r FsckReport) Clean() bool {
	return r.RecordsDropped == 0 && r.TornBytes == 0 && r.QuarantinedExtents == 0
}

// logFsck is one log pair's contribution to the container FsckReport,
// produced by ingest workers and merged in deterministic ref order.
type logFsck struct {
	id          int32
	frames      int64
	dropped     int64
	torn        int64
	quarantined []logRange
}

// truncateTail cuts a torn tail when the backend file supports it. The
// repair is opportunistic: a backend without Truncator leaves the tail
// in place and the decoder simply keeps ignoring it.
func truncateTail(f BackendFile, clean int64) {
	if tr, ok := f.(Truncator); ok {
		tr.Truncate(clean) //lint:allow errflow -- opportunistic repair: a failed truncate leaves the tail for the decoder to keep ignoring
	}
}

// Fsck runs the plfsck recovery pass standalone: open the container,
// sweep and repair every log (VerifyOnOpen forced on), and report. The
// container is left in its repaired state — torn tails truncated where
// the backend allows, so a subsequent strict open succeeds.
func Fsck(b Backend, path string, opts Options) (*FsckReport, error) {
	opts.VerifyOnOpen = true
	c, err := OpenContainer(b, path, opts)
	if err != nil {
		return nil, err
	}
	r, err := c.OpenReader()
	if err != nil {
		return nil, err
	}
	rep := r.FsckReport()
	if err := r.Close(); err != nil {
		return nil, err
	}
	return rep, nil
}
