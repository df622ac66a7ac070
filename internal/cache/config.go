// Package cache models set-associative instruction caches with LRU
// replacement, including concrete simulation in the presence of permanently
// faulty (disabled) cache blocks and of the two reliability mechanisms
// studied in the paper: the Reliable Way (RW) and the Shared Reliable
// Buffer (SRB).
//
// The package is the hardware substrate of the reproduction: the static
// analyses in internal/absint and internal/ipet reason about the same
// geometry, and internal/sim uses the concrete simulator to validate the
// static bounds.
package cache

import "fmt"

// Config describes a set-associative instruction cache.
//
// The paper's experimental configuration is 1KB, 4 ways, 16-byte lines,
// 1-cycle cache latency and 100-cycle memory latency; see PaperConfig.
type Config struct {
	// Sets is the number of cache sets (S in the paper).
	Sets int
	// Ways is the associativity (W in the paper).
	Ways int
	// BlockBytes is the cache line size in bytes (K = 8*BlockBytes bits).
	BlockBytes int
	// HitLatency is the access latency of the cache in cycles.
	HitLatency int64
	// MemLatency is the additional latency of a memory access on a cache
	// miss, in cycles.
	MemLatency int64
}

// PaperConfig returns the cache configuration used throughout the paper's
// evaluation (Section IV.A): 1KB capacity, 4-way set-associative, 16-byte
// lines, 1-cycle cache latency, 100-cycle memory latency.
func PaperConfig() Config {
	return Config{
		Sets:       16,
		Ways:       4,
		BlockBytes: 16,
		HitLatency: 1,
		MemLatency: 100,
	}
}

// Validate reports whether the configuration is well formed.
func (c Config) Validate() error {
	switch {
	case c.Sets <= 0:
		return fmt.Errorf("cache: Sets must be positive, got %d", c.Sets)
	case c.Ways <= 0:
		return fmt.Errorf("cache: Ways must be positive, got %d", c.Ways)
	case c.BlockBytes <= 0:
		return fmt.Errorf("cache: BlockBytes must be positive, got %d", c.BlockBytes)
	case c.BlockBytes&(c.BlockBytes-1) != 0:
		return fmt.Errorf("cache: BlockBytes must be a power of two, got %d", c.BlockBytes)
	case c.Sets&(c.Sets-1) != 0:
		return fmt.Errorf("cache: Sets must be a power of two, got %d", c.Sets)
	case c.HitLatency <= 0:
		return fmt.Errorf("cache: HitLatency must be positive, got %d", c.HitLatency)
	case c.MemLatency <= 0:
		return fmt.Errorf("cache: MemLatency must be positive, got %d", c.MemLatency)
	}
	return nil
}

// SizeBytes returns the total cache capacity in bytes.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * c.BlockBytes }

// BlockBits returns the block size in bits (K in equation 1 of the paper).
func (c Config) BlockBits() int { return 8 * c.BlockBytes }

// MissCost returns the total cost in cycles of an access that misses:
// the cache probe plus the memory access.
func (c Config) MissCost() int64 { return c.HitLatency + c.MemLatency }

// MissPenalty returns the extra cost of a miss over a hit, in cycles.
// Fault-induced misses each contribute exactly this penalty.
func (c Config) MissPenalty() int64 { return c.MemLatency }

// BlockAddr maps a byte address to its memory-block address.
func (c Config) BlockAddr(addr uint32) uint32 { return addr / uint32(c.BlockBytes) }

// SetOfBlock maps a memory-block address to the cache set it belongs to.
func (c Config) SetOfBlock(block uint32) int { return int(block) % c.Sets }

// Mechanism identifies the reliability mechanism protecting the cache
// against permanently faulty blocks.
type Mechanism int

const (
	// MechanismNone is the unprotected architecture of [1] (Hardy & Puaut,
	// RTS 2015): faulty blocks are simply disabled.
	MechanismNone Mechanism = iota
	// MechanismRW is the Reliable Way: one fixed way per set (way 0) is
	// resilient to permanent faults, so at most W-1 ways can be lost and
	// spatial locality is always captured (Section III.A.1).
	MechanismRW
	// MechanismSRB is the Shared Reliable Buffer: a single fault-resilient
	// block-sized buffer shared by all sets, consulted only when every
	// block of the referenced set is faulty (Section III.A.2).
	MechanismSRB
)

// String returns the short name used in figures and CLI flags.
func (m Mechanism) String() string {
	switch m {
	case MechanismNone:
		return "none"
	case MechanismRW:
		return "rw"
	case MechanismSRB:
		return "srb"
	default:
		return fmt.Sprintf("Mechanism(%d)", int(m))
	}
}

// ParseMechanism converts a CLI-style name ("none", "rw", "srb") to a
// Mechanism.
func ParseMechanism(s string) (Mechanism, error) {
	switch s {
	case "none":
		return MechanismNone, nil
	case "rw":
		return MechanismRW, nil
	case "srb":
		return MechanismSRB, nil
	}
	return 0, fmt.Errorf("cache: unknown mechanism %q (want none, rw or srb)", s)
}
