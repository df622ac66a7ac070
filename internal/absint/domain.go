package absint

// This file defines the abstract cache state (ACS) domains for one cache
// set, and their join/transfer/equality operations.
//
// Must and May track per-block LRU age bounds (max and min, respectively)
// as in Ferdinand & Wilhelm. Persistence tracks, per block, the "younger
// set": the set of distinct same-cache-set memory blocks possibly accessed
// since the block's last access. Under LRU, a block's concrete age equals
// the number of distinct blocks accessed since its last access (when it
// is still cached), so |youngerSet| upper-bounds the age on every path;
// the block may have been evicted only when |youngerSet| >= associativity.

// youngerSet is the per-block state of the persistence analysis. Once the
// set can reach the associativity bound the block is saturated ("may have
// been evicted") and the exact content no longer matters.
type youngerSet struct {
	sat    bool
	blocks map[uint32]struct{}
}

func (y *youngerSet) clone() *youngerSet {
	if y.sat {
		return &youngerSet{sat: true}
	}
	c := &youngerSet{blocks: make(map[uint32]struct{}, len(y.blocks))}
	for b := range y.blocks {
		c.blocks[b] = struct{}{}
	}
	return c
}

// add inserts a block and saturates when the set reaches assoc.
func (y *youngerSet) add(b uint32, assoc int) {
	if y.sat {
		return
	}
	y.blocks[b] = struct{}{}
	if len(y.blocks) >= assoc {
		y.sat = true
		y.blocks = nil
	}
}

func (y *youngerSet) union(o *youngerSet, assoc int) {
	if y.sat {
		return
	}
	if o.sat {
		y.sat = true
		y.blocks = nil
		return
	}
	//pwcetlint:ordered add() only inserts into a set and saturates at a size threshold; final content and sat flag are order-independent
	for b := range o.blocks {
		y.add(b, assoc)
	}
}

func (y *youngerSet) equal(o *youngerSet) bool {
	if y.sat != o.sat {
		return false
	}
	if y.sat {
		return true
	}
	if len(y.blocks) != len(o.blocks) {
		return false
	}
	//pwcetlint:ordered membership test with early return false; the boolean result is the same whichever mismatch is seen first
	for b := range y.blocks {
		if _, ok := o.blocks[b]; !ok {
			return false
		}
	}
	return true
}

// setState is the joint ACS of Must, May and Persistence for one cache
// set at a given effective associativity.
type setState struct {
	reached bool
	must    map[uint32]int // block -> max age, 0..assoc-1
	may     map[uint32]int // block -> min age, 0..assoc-1
	pers    map[uint32]*youngerSet
}

func newSetState() *setState {
	return &setState{
		must: make(map[uint32]int),
		may:  make(map[uint32]int),
		pers: make(map[uint32]*youngerSet),
	}
}

func (s *setState) clone() *setState {
	c := &setState{
		reached: s.reached,
		must:    make(map[uint32]int, len(s.must)),
		may:     make(map[uint32]int, len(s.may)),
		pers:    make(map[uint32]*youngerSet, len(s.pers)),
	}
	for b, a := range s.must {
		c.must[b] = a
	}
	for b, a := range s.may {
		c.may[b] = a
	}
	//pwcetlint:ordered keyed copy into a fresh map; clone() has no observable effect beyond its result
	for b, y := range s.pers {
		c.pers[b] = y.clone()
	}
	return c
}

func (s *setState) equal(o *setState) bool {
	if s.reached != o.reached || len(s.must) != len(o.must) ||
		len(s.may) != len(o.may) || len(s.pers) != len(o.pers) {
		return false
	}
	//pwcetlint:ordered per-key equality with early return false; the boolean result is the same whichever mismatch is seen first
	for b, a := range s.must {
		if oa, ok := o.must[b]; !ok || oa != a {
			return false
		}
	}
	//pwcetlint:ordered per-key equality with early return false; the boolean result is the same whichever mismatch is seen first
	for b, a := range s.may {
		if oa, ok := o.may[b]; !ok || oa != a {
			return false
		}
	}
	//pwcetlint:ordered per-key equality with early return false; equal() is read-only, so the result is order-independent
	for b, y := range s.pers {
		oy, ok := o.pers[b]
		if !ok || !y.equal(oy) {
			return false
		}
	}
	return true
}

// join merges another state into s (s becomes the join of both).
// Must: intersection with maximal age. May: union with minimal age.
// Persistence: union with united younger sets.
func (s *setState) join(o *setState, assoc int) {
	if !o.reached {
		return
	}
	if !s.reached {
		*s = *o.clone()
		return
	}
	for b, a := range s.must {
		oa, ok := o.must[b]
		if !ok {
			delete(s.must, b)
			continue
		}
		if oa > a {
			s.must[b] = oa
		}
	}
	//pwcetlint:ordered per-key min over disjoint keys; each iteration reads and writes only s.may[b] for its own b
	for b, oa := range o.may {
		if a, ok := s.may[b]; !ok || oa < a {
			s.may[b] = oa
		}
	}
	//pwcetlint:ordered per-key set union over disjoint keys; union/clone touch only the entry for this b
	for b, oy := range o.pers {
		if y, ok := s.pers[b]; ok {
			y.union(oy, assoc)
		} else {
			s.pers[b] = oy.clone()
		}
	}
}

// access applies the LRU transfer function for an access to block m.
func (s *setState) access(m uint32, assoc int) {
	if assoc <= 0 {
		return // no usable ways: nothing is cached
	}
	// Must update: blocks younger than m's max age grow older.
	mAge, inMust := s.must[m]
	if !inMust {
		mAge = assoc
	}
	for b, a := range s.must {
		if b == m {
			continue
		}
		if a < mAge {
			if a+1 >= assoc {
				delete(s.must, b)
			} else {
				s.must[b] = a + 1
			}
		}
	}
	s.must[m] = 0

	// May update: blocks at least as young as m's min age grow older.
	mMin, inMay := s.may[m]
	if !inMay {
		mMin = assoc
	}
	for b, a := range s.may {
		if b == m {
			continue
		}
		if a <= mMin {
			if a+1 >= assoc {
				delete(s.may, b)
			} else {
				s.may[b] = a + 1
			}
		}
	}
	s.may[m] = 0

	// Persistence update: every other block may now have one more
	// distinct block above it; m's own younger set resets.
	//pwcetlint:ordered inserts the same single block m into each entry's younger set; per-key independent
	for b, y := range s.pers {
		if b == m {
			continue
		}
		y.add(m, assoc)
	}
	s.pers[m] = &youngerSet{blocks: make(map[uint32]struct{})}
}
