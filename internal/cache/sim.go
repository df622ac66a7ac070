package cache

// Sim is a cycle-counting concrete simulator of a set-associative LRU
// instruction cache in the presence of permanently faulty blocks and of an
// optional reliability mechanism.
//
// It implements exactly the architecture of Sections II.A and III.A:
//
//   - a block with at least one faulty bit is disabled, shrinking the LRU
//     stack of its set;
//   - with the Reliable Way, way 0 is fault-resilient, so each set keeps at
//     least one usable way;
//   - with the Shared Reliable Buffer, a single reliable block-sized buffer
//     is looked up (and on a miss, refilled) only when every way of the
//     referenced set is faulty; otherwise the cache look-up is unchanged
//     and the SRB keeps its content.
//
// Sim is used by internal/sim to validate the static analysis: on any
// path and for any fault map, the measured fault-induced misses must not
// exceed the Fault Miss Map bounds.
type Sim struct {
	cfg    Config
	mech   Mechanism
	usable []int
	// stacks[s] is the LRU stack of set s: stacks[s][0] is the most
	// recently used block address. len(stacks[s]) <= usable[s].
	stacks   [][]uint32
	srb      uint32
	srbValid bool

	// Statistics, exported for assertions and reporting.
	Hits      int64 // accesses served by a non-faulty cache block
	Misses    int64 // accesses that paid the memory latency
	SRBHits   int64 // subset of Hits served by the SRB
	SRBMisses int64 // subset of Misses that refilled the SRB
	Time      int64 // accumulated cycles
}

// NewSim builds a simulator for the given configuration, mechanism and
// fault map. The fault map must match the configuration's geometry.
func NewSim(cfg Config, mech Mechanism, fm FaultMap) *Sim {
	usable := make([]int, cfg.Sets)
	for s := 0; s < cfg.Sets; s++ {
		usable[s] = fm.UsableWays(s, mech)
	}
	return &Sim{
		cfg:    cfg,
		mech:   mech,
		usable: usable,
		stacks: make([][]uint32, cfg.Sets),
	}
}

// Access simulates one instruction fetch at the given byte address and
// reports whether it hit (in the cache or in the SRB). Time and counters
// are updated.
func (s *Sim) Access(addr uint32) bool {
	block := s.cfg.BlockAddr(addr)
	set := s.cfg.SetOfBlock(block)
	u := s.usable[set]

	if u == 0 {
		// The whole set is faulty.
		if s.mech == MechanismSRB {
			if s.srbValid && s.srb == block {
				s.Hits++
				s.SRBHits++
				s.Time += s.cfg.HitLatency
				return true
			}
			s.srb = block
			s.srbValid = true
			s.Misses++
			s.SRBMisses++
			s.Time += s.cfg.MissCost()
			return false
		}
		// No protection: the access goes straight to memory.
		s.Misses++
		s.Time += s.cfg.MissCost()
		return false
	}

	stack := s.stacks[set]
	for i, b := range stack {
		if b == block {
			// Hit: move to MRU position.
			copy(stack[1:i+1], stack[:i])
			stack[0] = block
			s.Hits++
			s.Time += s.cfg.HitLatency
			return true
		}
	}
	// Miss: insert at MRU, evict LRU if the (shrunken) stack is full.
	if len(stack) < u {
		stack = append(stack, 0)
	}
	copy(stack[1:], stack[:len(stack)-1])
	stack[0] = block
	s.stacks[set] = stack
	s.Misses++
	s.Time += s.cfg.MissCost()
	return false
}

// AccessAll simulates a sequence of instruction fetches and returns the
// number of misses it produced.
func (s *Sim) AccessAll(addrs []uint32) int64 {
	before := s.Misses
	for _, a := range addrs {
		s.Access(a)
	}
	return s.Misses - before
}
