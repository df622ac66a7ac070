package absint

import "unsafe"

// MemBytes estimates the resident heap bytes of the analyzer: the
// reference lists (global and per-block), the reverse post-order and
// the per-set index (per-set reference copies, block universes and
// fixpoint sweep groups). Fixpoint states are deliberately not
// counted: a classification call takes them from a package-wide scratch
// pool and returns them when it is done, so they are reclaimable
// scratch, not part of the memoized artifact. The estimate feeds the
// engine's LRU eviction budget (core.EngineOptions.MaxArtifactBytes);
// relative consistency matters, byte exactness does not.
func (a *Analyzer) MemBytes() int64 {
	const (
		wordBytes        = 8
		sliceHeaderBytes = 24
	)
	refBytes := int64(unsafe.Sizeof(Ref{}))
	localRefBytes := int64(unsafe.Sizeof(localRef{}))
	b := int64(cap(a.all)) * refBytes
	b += int64(cap(a.perBB)) * sliceHeaderBytes
	for _, refs := range a.perBB {
		b += int64(cap(refs)) * refBytes
	}
	b += int64(cap(a.rpo)) * wordBytes
	b += int64(cap(a.sets)) * int64(unsafe.Sizeof(setIndex{}))
	for i := range a.sets {
		ix := &a.sets[i]
		b += int64(cap(ix.refs)) * refBytes
		b += int64(cap(ix.blocks)) * 4
		b += int64(cap(ix.groups)) * int64(unsafe.Sizeof(refGroup{}))
		for _, g := range ix.groups {
			b += int64(cap(g.refs)) * localRefBytes
		}
	}
	return b
}
