package dist

import (
	"fmt"
	"sync"
)

// scratch is the working memory of the dense convolution and the
// least-error coarsening: the accumulator, its read-out, the inner
// operand's band layout and segment, and the coarsener's arrays. A
// reduction takes one from scratchPool for its merge nodes (one per
// worker slot when they run in parallel), so the arrays grow to the
// largest node once and are then reused by every later node and every
// later reduction: node sizes grow from the leaves up, so a scratch
// per reduction would re-grow at every level. Only where the memory
// comes from changes; the kernels read the same operands and add the
// same products into the same cells in the same order.
//
// The invariants:
//
//   - acc is all zero between uses. The read-out clears each cell as it
//     takes it, and -tags pwcetcheck asserts the zero state after every
//     read-out.
//   - No view of a scratch array leaves the package: every Dist the
//     kernels return owns its memory.
//   - A scratch goes back to the pool only on a normal return; a kernel
//     that panics drops it.
//   - No array longer than maxPooledLen is kept (see grow).
//
// The zero scratch is ready to use.
type scratch struct {
	acc []float64 // the dense accumulator, all zero between uses

	// The read-out of an over-cap sum, which the coarsener then merges
	// in place (probs also takes a copy of a Dist's masses to coarsen).
	values []int64
	probs  []float64

	// bandInner's layout of the inner operand, and the segment.
	off   []int
	inner []float64
	ends  []int
	seg   []float64

	// coarsenLeastErrorCapped's arrays; low only under a finite span cap.
	low        []float64
	next, prev []int32
	key, sel   []float64
	work       []int32
}

// maxPooledLen bounds every array a scratch keeps. The dense accumulator
// may reach maxDenseSpan cells (32 MiB), but the deepest 256-set
// reductions peak near 2^16 cells. The pool holds its scratches live
// until the GC clears them, and the GC's heap goal doubles whatever is
// live, so a rare huge call must not pin its arrays in the pool.
const maxPooledLen = 1 << 20

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch takes a scratch from the pool.
func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// put returns s to the pool. Callers call it only on a normal return,
// never in a defer: a kernel that panicked may have left cells of acc
// nonzero, and that scratch is dropped.
func (s *scratch) put() { scratchPool.Put(s) }

// grow returns (*buf)[:n], first replacing *buf by an array of exactly n
// elements when it is shorter. An array longer than maxPooledLen is
// allocated fresh and never kept. Replacing an accumulator keeps it all
// zero: the old array was, and make zero-fills the new one.
func grow[T any](buf *[]T, n int) []T {
	if n > maxPooledLen {
		return make([]T, n)
	}
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// checkZero panics unless every cell of the accumulator is zero (a
// pwcetcheck assertion, run after every read-out).
func (s *scratch) checkZero() {
	for k, p := range s.acc[:cap(s.acc)] {
		if p != 0 {
			panic(fmt.Sprintf("pwcetcheck: convolveDenseStride: accumulator cell %d = %g after the read-out, want 0", k, p))
		}
	}
}
