package absint

// SRB analysis (Section III.B.2): a Must analysis of the Shared Reliable
// Buffer performed "as if the SRB was the only cache in the system".
// Every reference — whatever set it maps to — may reload the SRB, because
// whether a reference actually goes through the SRB depends on the fault
// map (it does when its set is entirely faulty). Analyzing the SRB as a
// one-block cache over the whole reference stream is therefore the
// conservative abstraction the paper uses; it captures spatial locality
// (sequential code within one memory block) and nothing more.
//
// The abstract state is: unreached, a single guaranteed-resident block,
// or unknown content.

type srbKind int8

const (
	srbUnreached srbKind = iota
	srbKnown
	srbUnknown
)

type srbState struct {
	kind  srbKind
	block uint32
}

func srbJoin(a, b srbState) srbState {
	switch {
	case a.kind == srbUnreached:
		return b
	case b.kind == srbUnreached:
		return a
	case a.kind == srbKnown && b.kind == srbKnown && a.block == b.block:
		return a
	default:
		return srbState{kind: srbUnknown}
	}
}

// ClassifySRB computes, for every reference (indexed by Ref.Global),
// whether it is guaranteed to hit in the SRB when its set is entirely
// faulty. Such references are removed from the f = W column of the Fault
// Miss Map (Section III.B.2).
func (a *Analyzer) ClassifySRB() []bool {
	outStates := make([]srbState, len(a.p.Blocks))
	for changed := true; changed; {
		changed = false
		for _, bb := range a.rpo {
			st := a.srbIn(outStates, bb)
			if st.kind != srbUnreached {
				for _, r := range a.perBB[bb] {
					st = srbState{kind: srbKnown, block: r.Block}
				}
			}
			if outStates[bb] != st {
				outStates[bb] = st
				changed = true
			}
		}
	}

	hit := make([]bool, len(a.all))
	for _, bb := range a.rpo {
		st := a.srbIn(outStates, bb)
		if st.kind == srbUnreached {
			continue
		}
		for _, r := range a.perBB[bb] {
			if st.kind == srbKnown && st.block == r.Block {
				hit[r.Global] = true
			}
			st = srbState{kind: srbKnown, block: r.Block}
		}
	}
	return hit
}

func (a *Analyzer) srbIn(outStates []srbState, bb int) srbState {
	st := srbState{}
	if bb == a.p.Entry {
		st = srbState{kind: srbUnknown} // SRB content unknown at start
	}
	for _, pr := range a.p.Blocks[bb].Preds {
		st = srbJoin(st, outStates[pr])
	}
	return st
}
