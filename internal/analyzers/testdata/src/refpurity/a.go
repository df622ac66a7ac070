// Corpus for the refpurity analyzer, run with a rule where functions
// matching ^Reference must not call FastSum, FastPick or Engine.fastRun.
package refpurity

// FastSum is the "optimized path" of this corpus.
func FastSum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// slowSum is an unrelated helper: calling it is always fine.
func slowSum(xs []int) int {
	total := 0
	for i := 0; i < len(xs); i++ {
		total += xs[i]
	}
	return total
}

// ReferenceSum is a root and calls the forbidden function — flagged.
func ReferenceSum(xs []int) int {
	return FastSum(xs) // want `reference implementation ReferenceSum calls optimized path FastSum`
}

// ReferencePure is a root that stays on its own helpers — not flagged.
func ReferencePure(xs []int) int {
	return slowSum(xs)
}

// FastPick is a generic optimized path.
func FastPick[T any](xs []T) T { return xs[0] }

// ReferencePick calls the generic optimized path with inferred and with
// explicit type arguments — both flagged.
func ReferencePick(xs []int) int {
	a := FastPick(xs)      // want `reference implementation ReferencePick calls optimized path FastPick`
	b := FastPick[int](xs) // want `reference implementation ReferencePick calls optimized path FastPick`
	return a + b
}

// Caller is not a root: it may call the optimized path freely.
func Caller(xs []int) int {
	return FastSum(xs)
}

type Engine struct{ n int }

func (e *Engine) fastRun() int { return e.n * 2 }

func (e *Engine) helper() int { return e.n }

// ReferenceRun is a root method calling a forbidden method — flagged.
func (e *Engine) ReferenceRun() int {
	return e.fastRun() // want `reference implementation Engine\.ReferenceRun calls optimized path Engine\.fastRun`
}

// ReferenceHelper calls a non-forbidden method — not flagged.
func (e *Engine) ReferenceHelper() int {
	return e.helper()
}

// ReferenceShared: the call is justified and suppressed.
func ReferenceShared(xs []int) int {
	//pwcetlint:refpurity corpus example of a reviewed shared prologue
	return FastSum(xs)
}
