package absint

import (
	"sort"

	"repro/internal/program"
)

// This file builds the per-set reference index the analyzer's hot path
// runs on. The FMM workload classifies and re-weights one cache set at
// a time, W times per set; scanning the full reference list and
// filtering r.Set != set on every pass made that O(sets * ways *
// totalRefs). The index groups everything per set once at construction:
//
//   - refs: the set's references in global order (RefsOfSet — what
//     computeFMMRow iterates instead of Refs());
//   - blocks: the set's distinct memory blocks, sorted — the local
//     block universe. Local ids index the compact abstract states of
//     domain_compact.go, replacing per-block hash maps with dense
//     arrays and bitsets;
//   - groups: the set's references grouped by basic block in reverse
//     post-order, so a fixpoint sweep advances a single cursor instead
//     of filtering every block's reference list.

// localRef is one reference of a set inside the per-set index: its
// global index (for classification output) and the local id of its
// memory block in the set's block universe.
type localRef struct {
	global int32
	local  int32
}

// refGroup is the ordered run of a set's references inside one basic
// block, keyed by the block's position in the reverse post-order.
type refGroup struct {
	rpoPos int32
	bb     int32
	refs   []localRef
}

// setIndex is the per-set view of the reference stream.
type setIndex struct {
	refs   []Ref
	blocks []uint32
	groups []refGroup
	words  int // uint64 words per younger-set bitset row
}

// localOf returns the local id of a block in the set's universe.
func (ix *setIndex) localOf(block uint32) int32 {
	return int32(sort.Search(len(ix.blocks), func(i int) bool { return ix.blocks[i] >= block }))
}

// buildSetIndexes constructs the per-set index from the precomputed
// reference lists and the reverse post-order.
func buildSetIndexes(p *program.Program, sets int, perBB [][]Ref, all []Ref, rpo []int) []setIndex {
	ixs := make([]setIndex, sets)
	for _, r := range all {
		ixs[r.Set].refs = append(ixs[r.Set].refs, r)
	}
	for s := range ixs {
		ix := &ixs[s]
		blocks := make([]uint32, 0, len(ix.refs))
		for _, r := range ix.refs {
			blocks = append(blocks, r.Block)
		}
		sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
		out := blocks[:0]
		for _, b := range blocks {
			if len(out) == 0 || out[len(out)-1] != b {
				out = append(out, b)
			}
		}
		ix.blocks = out
		ix.words = (len(out) + 63) / 64
	}
	for pos, bb := range rpo {
		for _, r := range perBB[bb] {
			ix := &ixs[r.Set]
			if n := len(ix.groups); n == 0 || ix.groups[n-1].rpoPos != int32(pos) {
				ix.groups = append(ix.groups, refGroup{rpoPos: int32(pos), bb: int32(bb)})
			}
			g := &ix.groups[len(ix.groups)-1]
			g.refs = append(g.refs, localRef{global: int32(r.Global), local: ix.localOf(r.Block)})
		}
	}
	return ixs
}
