package dist

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// axpyRef is the loop both axpy implementations must match bit for bit:
// each product rounded to float64, then added.
func axpyRef(row, q []float64, p float64) {
	for k := range q {
		row[k] += float64(p * q[k])
	}
}

// axpyModes are the two axpy implementations: the AVX2 assembly and
// the Go loop, selected through useAVX2.
var axpyModes = []struct {
	name string
	avx2 bool
}{{"avx2", true}, {"go", false}}

// runAxpyModes runs f as one subtest per axpy implementation. The AVX2
// subtest skips on a CPU without AVX2.
func runAxpyModes(t *testing.T, f func(t *testing.T)) {
	for _, m := range axpyModes {
		t.Run(m.name, func(t *testing.T) {
			if m.avx2 && !hasAVX2() {
				t.Skip("the CPU has no AVX2")
			}
			setAVX2(t, m.avx2)
			f(t)
		})
	}
}

// setAVX2 sets useAVX2 for the rest of the test.
func setAVX2(t testing.TB, on bool) {
	saved := useAVX2
	useAVX2 = on
	t.Cleanup(func() { useAVX2 = saved })
}

// axpySentinel fills the cells past len(q); axpy must leave them alone.
const axpySentinel = -1234.5

// checkAxpy runs axpy, under the current useAVX2, on copies of row and
// q placed at offset off of their backing arrays, with two sentinel
// cells after the row, and compares the cells bit for bit with axpyRef.
// Failures start with prefix.
func checkAxpy(t *testing.T, prefix string, row, q []float64, p float64, off int) {
	t.Helper()
	rb := make([]float64, off+len(row)+2)
	qb := make([]float64, off+len(q))
	for k := range rb {
		rb[k] = axpySentinel
	}
	copy(rb[off:], row)
	copy(qb[off:], q)
	want := append([]float64(nil), row...)
	axpyRef(want, q, p)
	// len(row) > len(q): the row slice reaches the first sentinel.
	axpy(rb[off:off+len(row)+1], qb[off:], p)
	for k, w := range want {
		if got := rb[off+k]; math.Float64bits(got) != math.Float64bits(w) {
			t.Fatalf("%scell %d of %d: %#x, want %#x (row %g, p %g, q %g)",
				prefix, k, len(q), math.Float64bits(got), math.Float64bits(w), row[k], p, q[k])
		}
	}
	for k := off + len(row); k < len(rb); k++ {
		if rb[k] != axpySentinel {
			t.Fatalf("%scell %d past len(q) = %d was written: %g", prefix, k-off, len(q), rb[k])
		}
	}
	for k := 0; k < off; k++ {
		if rb[k] != axpySentinel {
			t.Fatalf("%scell %d before the row was written: %g", prefix, k-off, rb[k])
		}
	}
}

// TestAxpy pins both axpy implementations bitwise to axpyRef on every
// length from 0 to 67, so each of the 16-, 4- and 1-cell loops of the
// assembly runs with every remainder; on rows and operands that start
// at odd offsets of their arrays; on zero, subnormal and normal row
// cells, some of them the size of the product, where a fused
// multiply-add would round differently; and on products at and just
// above 2^-1022. Each call gets a row one cell longer than q, and the
// cell after len(q) must stay untouched.
func TestAxpy(t *testing.T) {
	minNormalFactor := math.Ldexp(1, -511) // squared: exactly 2^-1022
	ps := []float64{0.7182818284590452, minNormalFactor, 1, 3.1e-5}
	runAxpyModes(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for n := 0; n <= 67; n++ {
			for _, off := range []int{0, 1, 3} {
				for _, p := range ps {
					row := make([]float64, n)
					q := make([]float64, n)
					for k := range q {
						q[k] = rng.Float64()
						switch k % 5 {
						case 0:
							row[k] = 0
						case 1:
							row[k] = float64(rng.Intn(1<<20)) * math.SmallestNonzeroFloat64
						case 2:
							row[k] = float64(p*q[k]) * (0.5 + rng.Float64())
						case 3:
							row[k] = rng.Float64()
						case 4:
							// q a factor whose product with 2^-511 is 2^-1022
							// or just above it.
							q[k] = math.Nextafter(minNormalFactor, 1)
							if k%2 == 0 {
								q[k] = minNormalFactor
							}
						}
					}
					checkAxpy(t, "", row, q, p, off)
				}
			}
		}
	})
}

// axpyFuzzFloat maps 8 bytes to a finite float64: NaN and the
// infinities lose the top bit of their exponent.
func axpyFuzzFloat(b []byte) float64 {
	x := binary.LittleEndian.Uint64(b)
	if x>>52&0x7ff == 0x7ff {
		x &^= 1 << 62
	}
	return math.Float64frombits(x)
}

// FuzzAxpy compares axpy, with AVX2 where the CPU has it and with the
// Go loop, bit for bit with axpyRef on arbitrary finite inputs: data
// holds (q[k], row[k]) pairs of 8-byte floats, and off places both
// slices at an odd or even start.
func FuzzAxpy(f *testing.F) {
	seed := func(p float64, off uint8, xs ...float64) {
		data := make([]byte, 8*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint64(data[8*i:], math.Float64bits(x))
		}
		f.Add(p, data, off)
	}
	seed(0.75, 0, 0.5, 0.25)
	seed(math.Ldexp(1, -511), 1, math.Ldexp(1, -511), 0, math.Nextafter(math.Ldexp(1, -511), 1), 3e-310)
	seed(1+math.Ldexp(1, -30), 3, 1+math.Ldexp(1, -30), -(1 + math.Ldexp(1, -29)))
	long := make([]float64, 2*37)
	for i := range long {
		long[i] = 1 / float64(i+3)
	}
	seed(0.3, 1, long...)
	f.Fuzz(func(t *testing.T, p float64, data []byte, off uint8) {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return
		}
		n := len(data) / 16
		q := make([]float64, n)
		row := make([]float64, n)
		for k := range q {
			q[k] = axpyFuzzFloat(data[16*k:])
			row[k] = axpyFuzzFloat(data[16*k+8:])
		}
		saved := useAVX2
		defer func() { useAVX2 = saved }()
		for _, m := range axpyModes {
			if m.avx2 && !hasAVX2() {
				continue // the Go loop still runs
			}
			useAVX2 = m.avx2
			checkAxpy(t, m.name+": ", row, q, p, int(off%4))
		}
	})
}
