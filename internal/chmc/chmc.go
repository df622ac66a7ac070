// Package chmc defines the Cache Hit/Miss Classification (CHMC) lattice
// used by the static cache analyses (Section II.B.1 of the paper).
//
// Every reference (the first access of a basic block to a memory block)
// receives a classification describing its worst-case cache behaviour:
//
//   - AlwaysHit: guaranteed to hit on every execution (Must analysis);
//   - FirstMiss: misses at most once per persistence scope, then always
//     hits (Persistence analysis);
//   - AlwaysMiss: guaranteed to miss on every execution (May analysis);
//   - NotClassified: none of the above can be proven.
//
// Following the paper's experimental setup, NotClassified is accounted
// exactly like AlwaysMiss by the timing model.
package chmc

// Class is a cache hit/miss classification.
type Class int8

const (
	// AlwaysHit marks references guaranteed to hit.
	AlwaysHit Class = iota
	// FirstMiss marks references that miss at most once per scope.
	FirstMiss
	// AlwaysMiss marks references guaranteed to miss.
	AlwaysMiss
	// NotClassified marks references with unknown behaviour; treated as
	// AlwaysMiss by the timing model.
	NotClassified
)

// String returns the conventional short name.
func (c Class) String() string {
	switch c {
	case AlwaysHit:
		return "AH"
	case FirstMiss:
		return "FM"
	case AlwaysMiss:
		return "AM"
	case NotClassified:
		return "NC"
	}
	return "?"
}

// CountsAsMiss reports whether the timing model charges a miss on every
// execution for this classification (AM and NC).
func (c Class) CountsAsMiss() bool { return c == AlwaysMiss || c == NotClassified }
