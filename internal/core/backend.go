//lint:allowfile goroutine -- sanctioned site: the in-memory backend is shared by concurrent writer ranks and must be internally synchronized

// Package core implements PLFS, the Parallel Log-structured File System
// (Bent et al., SC'09; conceived and prototyped within PDSI). PLFS is
// interposition middleware: an application's shared logical file is backed
// by a *container* — a directory holding one append-only data log and one
// index log per writer, spread across hostdirs. Writes, however small,
// strided, or unaligned, become pure appends to the writer's own log; the
// logical file's contents are resolved at read time by merging the index
// logs, with last-writer-wins semantics for overlaps.
//
// The package separates semantics from storage: all container logic works
// against the Backend interface, so the same code runs on the in-memory
// backend (unit tests, examples) and on simulated parallel file systems
// (benchmarks measuring the checkpoint speedups of Figure 8).
package core

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Backend is the slice of a POSIX-ish namespace PLFS needs from its
// underlying ("backing") file system: creating directories, creating and
// opening append-oriented files, and listing directories.
type Backend interface {
	// Mkdir creates a directory; it is an error if it exists.
	Mkdir(path string) error
	// Create creates or truncates a file.
	Create(path string) (BackendFile, error)
	// Open opens an existing file for reading.
	Open(path string) (BackendFile, error)
	// ReadDir lists the names (not full paths) of entries in a directory.
	ReadDir(path string) ([]string, error)
	// Exists reports whether a file or directory exists.
	Exists(path string) bool
}

// BackendFile is an append-writable, randomly readable file.
type BackendFile interface {
	io.Writer   // appends at end of file
	io.ReaderAt // random read
	Size() int64
	Close() error
}

// Truncator is an optional BackendFile capability: cutting a file to a
// shorter length. plfsck uses it to repair torn log tails; backends
// without it are still recoverable (the torn bytes are simply ignored
// on every subsequent open).
type Truncator interface {
	Truncate(size int64) error
}

// Errors returned by backends and container operations.
var (
	ErrNotExist = errors.New("plfs: no such file or directory")
	ErrExist    = errors.New("plfs: already exists")
	ErrClosed   = errors.New("plfs: use of closed handle")
)

// MemBackend is a thread-safe in-memory Backend. It is the reference
// storage used by unit tests and the quickstart example.
type MemBackend struct {
	mu    sync.Mutex
	files map[string]*memFile
	dirs  map[string]bool
}

// NewMemBackend returns an empty in-memory backend with a root directory.
func NewMemBackend() *MemBackend {
	return &MemBackend{
		files: make(map[string]*memFile),
		dirs:  map[string]bool{"/": true},
	}
}

func clean(path string) string {
	if path == "" {
		return "/"
	}
	if !strings.HasPrefix(path, "/") {
		path = "/" + path
	}
	for strings.Contains(path, "//") {
		path = strings.ReplaceAll(path, "//", "/")
	}
	if len(path) > 1 {
		path = strings.TrimSuffix(path, "/")
	}
	return path
}

func parent(path string) string {
	i := strings.LastIndex(path, "/")
	if i <= 0 {
		return "/"
	}
	return path[:i]
}

// Mkdir creates a directory under an existing parent.
func (b *MemBackend) Mkdir(path string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	path = clean(path)
	if b.dirs[path] || b.files[path] != nil {
		return fmt.Errorf("%w: %s", ErrExist, path)
	}
	if !b.dirs[parent(path)] {
		return fmt.Errorf("%w: parent of %s", ErrNotExist, path)
	}
	b.dirs[path] = true
	return nil
}

// Create creates or truncates a file under an existing directory.
func (b *MemBackend) Create(path string) (BackendFile, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	path = clean(path)
	if b.dirs[path] {
		return nil, fmt.Errorf("%w: %s is a directory", ErrExist, path)
	}
	if !b.dirs[parent(path)] {
		return nil, fmt.Errorf("%w: parent of %s", ErrNotExist, path)
	}
	f := &memFile{chunks: [][]byte{nil}, starts: []int64{0}}
	b.files[path] = f
	return &memHandle{f: f}, nil
}

// Open opens an existing file.
func (b *MemBackend) Open(path string) (BackendFile, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	path = clean(path)
	f, ok := b.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	return &memHandle{f: f}, nil
}

// ReadDir lists immediate children of a directory.
func (b *MemBackend) ReadDir(path string) ([]string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	path = clean(path)
	if !b.dirs[path] {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	prefix := path
	if prefix != "/" {
		prefix += "/"
	}
	seen := map[string]bool{}
	var names []string
	add := func(p string) {
		if !strings.HasPrefix(p, prefix) || p == path {
			return
		}
		rest := strings.TrimPrefix(p, prefix)
		if i := strings.Index(rest, "/"); i >= 0 {
			rest = rest[:i]
		}
		if rest != "" && !seen[rest] {
			seen[rest] = true
			names = append(names, rest)
		}
	}
	for p := range b.files {
		add(p)
	}
	for p := range b.dirs {
		add(p)
	}
	sort.Strings(names)
	return names, nil
}

// CorruptRange flips the high bit of n bytes starting at off in the
// named file, simulating silent media corruption beneath the container.
// Test-only helper: real corruption arrives through the disk model.
func (b *MemBackend) CorruptRange(path string, off, n int64) error {
	b.mu.Lock()
	f, ok := b.files[clean(path)]
	b.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if off < 0 || n < 0 || off > f.size-n {
		return fmt.Errorf("plfs: corrupt range [%d,%d) outside %d-byte file %s", off, off+n, f.size, path)
	}
	for i, c := range f.chunks {
		lo := max(off, f.starts[i]) - f.starts[i]
		hi := min(off+n, f.starts[i]+int64(len(c))) - f.starts[i]
		for j := lo; j < hi; j++ {
			c[j] ^= 0x80
		}
	}
	return nil
}

// Exists reports whether path names a file or directory.
func (b *MemBackend) Exists(path string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	path = clean(path)
	return b.dirs[path] || b.files[path] != nil
}

// Chunk sizes of a memFile. While the file fits in memFirstChunk bytes
// it is one chunk grown by append, as one flat slice would be, so files
// that small cost what they always did. A write that would take it past
// that fills the chunk's capacity instead and goes on into a new chunk;
// each later chunk is allocated once, at the file's size so far (or the
// rest of the write, if larger) capped at memMaxChunk, and never
// reallocated. An append then copies only its own bytes, however large
// the file grows.
const (
	memFirstChunk = 64 << 10
	memMaxChunk   = 1 << 20
)

// memFile is the shared content of a file; handles reference it. The
// bytes live in chunks, each full to capacity except the last; starts
// holds each chunk's file offset. The chunk logic lives in memHandle
// methods, which pdsibench's profile attributes to core.backend.
type memFile struct {
	mu     sync.Mutex
	chunks [][]byte
	starts []int64
	size   int64
}

type memHandle struct {
	f      *memFile
	closed bool
}

func (h *memHandle) Write(p []byte) (int, error) {
	if h.closed {
		return 0, ErrClosed
	}
	f := h.f
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(p)
	if len(f.chunks) == 1 && f.size+int64(len(p)) <= memFirstChunk {
		f.chunks[0] = append(f.chunks[0], p...)
		f.size += int64(len(p))
		return n, nil
	}
	for len(p) > 0 {
		last := len(f.chunks) - 1
		c := f.chunks[last]
		if len(c) == cap(c) {
			f.chunks = append(f.chunks, make([]byte, 0, min(max(f.size, int64(len(p))), memMaxChunk)))
			f.starts = append(f.starts, f.size)
			continue
		}
		k := min(len(p), cap(c)-len(c))
		f.chunks[last] = append(c, p[:k]...)
		f.size += int64(k)
		p = p[k:]
	}
	return n, nil
}

// chunkAt returns the index of the chunk holding file offset off, for
// 0 <= off <= size: at a chunk boundary, the chunk that starts there.
func (h *memHandle) chunkAt(off int64) int {
	i, found := slices.BinarySearch(h.f.starts, off)
	if !found {
		i--
	}
	return i
}

func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	if h.closed {
		return 0, ErrClosed
	}
	if off < 0 {
		return 0, fmt.Errorf("plfs: read at negative offset %d", off)
	}
	f := h.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if off >= f.size {
		return 0, io.EOF
	}
	n := 0
	for i := h.chunkAt(off); n < len(p) && i < len(f.chunks); i++ {
		n += copy(p[n:], f.chunks[i][off+int64(n)-f.starts[i]:])
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *memHandle) Truncate(size int64) error {
	if h.closed {
		return ErrClosed
	}
	f := h.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if size < 0 || size > f.size {
		return fmt.Errorf("plfs: truncate to %d outside %d-byte file", size, f.size)
	}
	// The chunk holding the new end becomes the last one; it keeps its
	// capacity, so later writes refill it before allocating.
	i := h.chunkAt(size)
	f.chunks[i] = f.chunks[i][:size-f.starts[i]]
	clear(f.chunks[i+1:])
	f.chunks, f.starts = f.chunks[:i+1], f.starts[:i+1]
	f.size = size
	return nil
}

func (h *memHandle) Size() int64 {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	return h.f.size
}

func (h *memHandle) Close() error {
	h.closed = true
	return nil
}
