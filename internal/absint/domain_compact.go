package absint

// This file is the compact abstract set state the hot path runs on: the
// same Must/May/Persistence lattice as domain.go, represented over the
// set's local block universe (see index.go) as dense age arrays and
// younger-set bitsets instead of hash maps. Every operation — join,
// transfer, equality — is an elementwise sweep over the (small) block
// universe, so a fixpoint iteration costs a few linear scans instead of
// map iteration, hashing and per-entry allocation.
//
// The map-based domain in domain.go is retained as the reference
// implementation; TestCompactDomainMatchesReference checks, on random
// programs and the Mälardalen benchmarks, that both produce identical
// classifications for every (set, associativity).

import (
	"math/bits"
	"sync"

	"repro/internal/chmc"
)

// cstate is the joint Must/May/Persistence state of one cache set over
// a local block universe of B blocks.
//
// must[b]/may[b] hold the block's age bound, or -1 when the block is
// not in the respective ACS. The persistence state of block b is:
// absent (persIn[b] == false: never loaded on any path), saturated
// (persSat[b]: may have been evicted), or the younger set itself —
// persSize[b] distinct blocks recorded in row b of the persBits bitset.
// Bits of absent or saturated rows are meaningless (rows are cleared on
// (re)insertion), mirroring the nil blocks map of a saturated
// youngerSet. The arrays of an unreached state are never read: join
// copies a reached state over them, equal compares unreached states by
// reachedness alone, and access and classifyCompact only run on reached
// states. Clearing reached therefore resets a state to the lattice
// bottom.
type cstate struct {
	reached  bool
	must     []int16
	may      []int16
	persIn   []bool
	persSat  []bool
	persSize []int16
	persBits []uint64
	words    int
}

// reset empties every array and marks the state unreached; setting
// reached then yields the empty cache the entry block starts from.
func (s *cstate) reset() {
	s.reached = false
	for b := range s.must {
		s.must[b] = -1
		s.may[b] = -1
		s.persIn[b] = false
	}
}

// copyFrom makes s an exact copy of o (same universe).
func (s *cstate) copyFrom(o *cstate) {
	s.reached = o.reached
	copy(s.must, o.must)
	copy(s.may, o.may)
	copy(s.persIn, o.persIn)
	copy(s.persSat, o.persSat)
	copy(s.persSize, o.persSize)
	copy(s.persBits, o.persBits)
}

// join merges another state into s — Must: intersection with maximal
// age; May: union with minimal age; Persistence: union with united
// younger sets — exactly like setState.join.
func (s *cstate) join(o *cstate, assoc int) {
	if !o.reached {
		return
	}
	if !s.reached {
		s.copyFrom(o)
		return
	}
	w := s.words
	for b := range s.must {
		if a := s.must[b]; a >= 0 {
			if oa := o.must[b]; oa < 0 {
				s.must[b] = -1
			} else if oa > a {
				s.must[b] = oa
			}
		}
		if oa := o.may[b]; oa >= 0 && (s.may[b] < 0 || oa < s.may[b]) {
			s.may[b] = oa
		}
		if !o.persIn[b] {
			continue
		}
		switch {
		case !s.persIn[b]:
			s.persIn[b] = true
			s.persSat[b] = o.persSat[b]
			s.persSize[b] = o.persSize[b]
			copy(s.persBits[b*w:(b+1)*w], o.persBits[b*w:(b+1)*w])
		case s.persSat[b]:
			// Saturated absorbs any union.
		case o.persSat[b]:
			s.persSat[b] = true
		default:
			row, orow := s.persBits[b*w:(b+1)*w], o.persBits[b*w:(b+1)*w]
			size := 0
			for i := range row {
				row[i] |= orow[i]
				size += bits.OnesCount64(row[i])
			}
			s.persSize[b] = int16(size)
			if size >= assoc {
				s.persSat[b] = true
			}
		}
	}
}

// access applies the LRU transfer function for an access to local block
// m, mirroring setState.access.
func (s *cstate) access(m int32, assoc int) {
	if assoc <= 0 {
		return // no usable ways: nothing is cached
	}
	// Must update: blocks younger than m's max age grow older.
	mAge := s.must[m]
	if mAge < 0 {
		mAge = int16(assoc)
	}
	for b := range s.must {
		if a := s.must[b]; int32(b) != m && a >= 0 && a < mAge {
			if int(a)+1 >= assoc {
				s.must[b] = -1
			} else {
				s.must[b] = a + 1
			}
		}
	}
	s.must[m] = 0

	// May update: blocks at least as young as m's min age grow older.
	mMin := s.may[m]
	if mMin < 0 {
		mMin = int16(assoc)
	}
	for b := range s.may {
		if a := s.may[b]; int32(b) != m && a >= 0 && a <= mMin {
			if int(a)+1 >= assoc {
				s.may[b] = -1
			} else {
				s.may[b] = a + 1
			}
		}
	}
	s.may[m] = 0

	// Persistence update: every other block may now have one more
	// distinct block above it; m's own younger set resets.
	w := s.words
	word, mask := int(m)/64, uint64(1)<<(uint(m)%64)
	for b := range s.persIn {
		if int32(b) == m || !s.persIn[b] || s.persSat[b] {
			continue
		}
		if s.persBits[b*w+word]&mask == 0 {
			s.persBits[b*w+word] |= mask
			s.persSize[b]++
			if int(s.persSize[b]) >= assoc {
				s.persSat[b] = true
			}
		}
	}
	row := s.persBits[int(m)*w : (int(m)+1)*w]
	for i := range row {
		row[i] = 0
	}
	s.persIn[m] = true
	s.persSat[m] = false
	s.persSize[m] = 0
}

// equal reports exact state equality, like setState.equal. Unreached
// states compare by reachedness alone: their arrays are never read.
func (s *cstate) equal(o *cstate) bool {
	if s.reached != o.reached {
		return false
	}
	if !s.reached {
		return true
	}
	w := s.words
	for b := range s.must {
		if s.must[b] != o.must[b] || s.may[b] != o.may[b] || s.persIn[b] != o.persIn[b] {
			return false
		}
		if !s.persIn[b] {
			continue
		}
		if s.persSat[b] != o.persSat[b] {
			return false
		}
		if s.persSat[b] {
			continue // saturated: content is immaterial, like a nil blocks map
		}
		if s.persSize[b] != o.persSize[b] {
			return false
		}
		row, orow := s.persBits[b*w:(b+1)*w], o.persBits[b*w:(b+1)*w]
		for i := range row {
			if row[i] != orow[i] {
				return false
			}
		}
	}
	return true
}

// classifyCompact derives the CHMC of an access to local block m at
// associativity assoc from a pre-state computed at any associativity
// W >= assoc. One fixpoint at W therefore classifies a set at every
// degraded associativity W-f the Fault Miss Map needs.
//
// Why it is exact. Let T_A map a state computed at W to associativity
// A <= W: a must or may age >= A becomes absent, and a persistence
// entry becomes saturated when it was saturated at W or its younger set
// holds >= A blocks (below that, the younger sets at W and at A are
// equal). T_A maps the unreached state to itself, and it commutes with
// join and access:
//
//   - must: a join keeps max(a, b), which is < A exactly when both ages
//     are; an access to m ages the blocks younger than m's age, and
//     m's age at A is min(age at W, A), so every age < A ages alike
//     and an age that reaches A drops out at A as it is truncated from W;
//   - may: a join keeps min(a, b), which is < A exactly when one age is;
//     the access ages blocks at most as old as m's age, which again is
//     min(age at W, A) at A;
//   - persistence: a union saturates at A when either side is saturated
//     at A or the united set reaches A blocks, which holds exactly when
//     T_A saturates the union taken at W; an access adds m to every
//     unsaturated younger set and resets m's own at both associativities.
//
// Each pass of the round-robin fixpoint is built from joins and
// accesses, so pass by pass the iteration at W truncates to the
// iteration at A, and a pass that changes nothing at W changes nothing
// at A: the fixpoint at A is T_A of the fixpoint at W. Reading T_A off
// the W state gives: AH when the must age is < A; FM when the block was
// never loaded, or is unsaturated with a younger set of < A blocks; AM
// when the may age is absent or >= A; NC otherwise. At A = W every age
// is < W and every unsaturated younger set holds < W blocks, so this is
// exactly classify() on the fixpoint at W.
func classifyCompact(st *cstate, m int32, assoc int) chmc.Class {
	switch {
	case st.must[m] >= 0 && int(st.must[m]) < assoc:
		return chmc.AlwaysHit
	case !st.persIn[m]:
		// No path has loaded m before this point, so the reference
		// executes at most once per run: at most one miss.
		return chmc.FirstMiss
	case !st.persSat[m] && int(st.persSize[m]) < assoc:
		return chmc.FirstMiss
	case st.may[m] < 0 || int(st.may[m]) >= assoc:
		return chmc.AlwaysMiss
	default:
		return chmc.NotClassified
	}
}

// scratchCompact is the working memory of one compact fixpoint call: the
// OUT state of every CFG block plus one IN state, all over the same set
// universe and carved from three backing arrays. out[bb] and in index
// states: the fixpoint builds each block's IN state in place and, when
// it differs from the block's OUT state, swaps the two indices, so a
// block visit neither allocates nor copies a state. The classification
// sweep then reuses the IN state. A call takes one scratch from
// scratchPoolCompact and returns it when it is done.
type scratchCompact struct {
	states []cstate
	out    []int32  // out[bb] indexes block bb's OUT state
	in     int32    // indexes the IN state
	ages   []int16  // must, may and persSize of every state
	flags  []bool   // persIn and persSat of every state
	bits   []uint64 // persBits of every state
	// nblocks and words are the universe the states are carved for.
	nblocks, words int
}

var scratchPoolCompact = sync.Pool{New: func() any { return new(scratchCompact) }}

// reset shapes the scratch for nstates OUT states plus the IN state
// over a universe of nblocks blocks with words-word bitset rows, and
// marks every state unreached. The states are re-carved only when the
// shape changes.
func (sc *scratchCompact) reset(nstates, nblocks, words int) {
	n := nstates + 1
	if len(sc.states) != n || sc.nblocks != nblocks || sc.words != words {
		sc.ages = resizeCompact(sc.ages, 3*n*nblocks)
		sc.flags = resizeCompact(sc.flags, 2*n*nblocks)
		sc.bits = resizeCompact(sc.bits, n*nblocks*words)
		sc.states = resizeCompact(sc.states, n)
		for i := range sc.states {
			ages := sc.ages[3*i*nblocks : 3*(i+1)*nblocks]
			flags := sc.flags[2*i*nblocks : 2*(i+1)*nblocks]
			sc.states[i] = cstate{
				must:     ages[:nblocks],
				may:      ages[nblocks : 2*nblocks],
				persSize: ages[2*nblocks:],
				persIn:   flags[:nblocks],
				persSat:  flags[nblocks:],
				persBits: sc.bits[i*nblocks*words : (i+1)*nblocks*words],
				words:    words,
			}
		}
		sc.nblocks, sc.words = nblocks, words
	}
	for i := range sc.states {
		sc.states[i].reached = false
	}
	sc.out = resizeCompact(sc.out, nstates)
	for bb := range sc.out {
		sc.out[bb] = int32(bb)
	}
	sc.in = int32(nstates)
}

// resizeCompact returns s with length n, reusing its array when it is
// large enough. The contents are unspecified.
func resizeCompact[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
