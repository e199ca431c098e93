// Package diskreduce implements DiskReduce (Fan, Tantisiriroj, Xiao &
// Gibson, PDSW'09; a PDSI exploration into data-intensive scalable
// computing storage): Hadoop-style triplication is wonderful for write
// performance and task locality but costs 200% capacity overhead, so
// DiskReduce asynchronously converts cold replicated blocks into RAID
// groups (erasure-coded stripes), keeping one full copy plus parity.
// Capacity overhead falls from 3.0x toward ~1.3x while recently-written
// (hot) data keeps its replicas — and the conversion delay is the knob
// trading locality for capacity.
package diskreduce

import (
	"fmt"
)

// Scheme is a redundancy layout for one block group.
type Scheme int

// Redundancy schemes.
const (
	// Triplicated is HDFS-style: 3 full copies.
	Triplicated Scheme = iota
	// RAID5Group keeps one copy plus one parity block per group.
	RAID5Group
	// RAID6Group keeps one copy plus two parity blocks per group.
	RAID6Group
)

func (s Scheme) String() string {
	switch s {
	case Triplicated:
		return "3-replication"
	case RAID5Group:
		return "raid5-group"
	case RAID6Group:
		return "raid6-group"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Overhead returns stored bytes per user byte for a group of size g.
func (s Scheme) Overhead(g int) float64 {
	switch s {
	case Triplicated:
		return 3
	case RAID5Group:
		return 1 + 1/float64(g)
	case RAID6Group:
		return 1 + 2/float64(g)
	default:
		return 0
	}
}

// Config describes the cluster's encoding policy.
type Config struct {
	// Target is the scheme cold blocks are encoded into.
	Target Scheme
	// GroupSize is the number of data blocks per parity group.
	GroupSize int
	// EncodeAfter is the age (in arbitrary time units) after which a
	// block is considered cold and eligible for encoding.
	EncodeAfter float64
}

// DefaultConfig mirrors the paper's RAID-6 groups of 8.
func DefaultConfig() Config {
	return Config{Target: RAID6Group, GroupSize: 8, EncodeAfter: 60}
}

// Block is one stored block's bookkeeping.
type Block struct {
	ID      int64
	Written float64 // creation time
	Encoded bool
	queued  bool // already on the cold list
}

// Store tracks the cluster's blocks and drives background encoding.
type Store struct {
	cfg    Config
	blocks []Block
	// pendingCold holds indexes of cold-but-unencoded blocks awaiting a
	// full group.
	pendingCold []int

	UserBlocks    int64
	ReplicaBlocks int64 // physical blocks attributable to triplication
	EncodedGroups int64
}

// NewStore creates an empty store.
func NewStore(cfg Config) *Store {
	if cfg.GroupSize < 2 || cfg.EncodeAfter < 0 {
		panic(fmt.Sprintf("diskreduce: invalid config %+v", cfg))
	}
	return &Store{cfg: cfg}
}

// Write ingests one block at the given time; new blocks are triplicated.
func (st *Store) Write(id int64, now float64) {
	st.blocks = append(st.blocks, Block{ID: id, Written: now})
	st.UserBlocks++
	st.ReplicaBlocks += 3
}

// EncodeTick runs the background encoder at the given time: cold blocks
// are gathered into full groups and converted to the target scheme.
// Returns the number of groups encoded this tick.
func (st *Store) EncodeTick(now float64) int {
	for i := range st.blocks {
		b := &st.blocks[i]
		if !b.Encoded && !b.queued && now-b.Written >= st.cfg.EncodeAfter {
			b.queued = true
			st.pendingCold = append(st.pendingCold, i)
		}
	}
	groups := 0
	for len(st.pendingCold) >= st.cfg.GroupSize {
		group := st.pendingCold[:st.cfg.GroupSize]
		st.pendingCold = st.pendingCold[st.cfg.GroupSize:]
		for _, idx := range group {
			st.blocks[idx].Encoded = true
		}
		st.EncodedGroups++
		groups++
	}
	return groups
}

// PhysicalBlocks returns current physical block usage.
func (st *Store) PhysicalBlocks() float64 {
	var encoded int64
	for i := range st.blocks {
		if st.blocks[i].Encoded {
			encoded++
		}
	}
	replicated := st.UserBlocks - encoded
	parityPerBlock := st.cfg.Target.Overhead(st.cfg.GroupSize) - 1
	return float64(replicated)*3 + float64(encoded)*(1+parityPerBlock)
}

// CapacityOverhead is physical/user block ratio (3.0 fresh, →1.25-1.3 as
// encoding catches up with a group size of 8).
func (st *Store) CapacityOverhead() float64 {
	if st.UserBlocks == 0 {
		return 0
	}
	return st.PhysicalBlocks() / float64(st.UserBlocks)
}

// Simulate ingests writesPerTick blocks per tick for ticks ticks, running
// the encoder each tick, and returns the overhead trajectory.
func Simulate(cfg Config, writesPerTick, ticks int) []float64 {
	st := NewStore(cfg)
	var id int64
	out := make([]float64, 0, ticks)
	for t := 0; t < ticks; t++ {
		now := float64(t)
		for w := 0; w < writesPerTick; w++ {
			st.Write(id, now)
			id++
		}
		st.EncodeTick(now)
		out = append(out, st.CapacityOverhead())
	}
	return out
}
