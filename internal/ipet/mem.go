package ipet

// WarmMemBytes estimates only the clone-private bytes of the system:
// the warm simplex tableau and the objective scratch. Clone shares the
// program, constraints and edge index with its source (read-only), so
// evicting a warm clone frees exactly this much — it is the eviction
// cost of a memoized WCET context. Like lp.Simplex.MemBytes, it is an
// eviction-cost estimate (consistent, not byte-exact) for the engine's
// bounded artifact memory.
func (s *System) WarmMemBytes() int64 {
	const wordBytes = 8
	b := int64(cap(s.obj)) * wordBytes
	if s.sx != nil {
		b += s.sx.MemBytes()
	}
	return b
}

// MemBytes estimates the resident heap bytes of the fault miss map.
func (f FMM) MemBytes() int64 {
	const (
		wordBytes        = 8
		sliceHeaderBytes = 24
	)
	b := int64(cap(f)) * sliceHeaderBytes
	for _, row := range f {
		b += int64(cap(row)) * wordBytes
	}
	return b
}
