package cache

// FaultMap records which physical cache blocks are permanently faulty.
// FaultMap[s][w] is true when way w of set s holds at least one faulty
// SRAM cell and is therefore disabled (Section II.A of the paper).
//
// The exact way index of a faulty block is irrelevant under LRU (the LRU
// stack of a set simply shrinks), but the map keeps per-way resolution so
// the RW mechanism can mask faults in its fixed reliable way (way 0).
type FaultMap [][]bool

// NewFaultMap returns an all-healthy fault map for the given geometry.
func NewFaultMap(sets, ways int) FaultMap {
	fm := make(FaultMap, sets)
	for s := range fm {
		fm[s] = make([]bool, ways)
	}
	return fm
}

// NumFaulty returns the number of faulty ways in the given set.
func (fm FaultMap) NumFaulty(set int) int {
	n := 0
	for _, f := range fm[set] {
		if f {
			n++
		}
	}
	return n
}

// UsableWays returns the number of ways of the given set that remain
// usable under the given reliability mechanism. With MechanismRW, faults
// affecting way 0 are masked by the reliable way, so the result is always
// at least 1. The SRB does not change the number of usable ways (it sits
// beside the cache), so MechanismSRB behaves like MechanismNone here.
func (fm FaultMap) UsableWays(set int, mech Mechanism) int {
	ways := len(fm[set])
	n := 0
	for w, f := range fm[set] {
		if !f || (mech == MechanismRW && w == 0) {
			n++
		}
	}
	if n > ways {
		n = ways
	}
	return n
}
