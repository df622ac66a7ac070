package malardalen_test

import (
	"testing"

	pwcet "repro"
)

// goldenRow records the analysis outputs of one benchmark under the
// paper's configuration (pfail = 1e-4, target 1e-15). These values lock
// the calibrated suite: any change to the benchmark programs, the
// analyses or the distribution machinery that shifts a number must be
// deliberate (update the table in the same change and re-derive the
// EXPERIMENTS.md record).
type goldenRow struct {
	name              string
	ff, none, rw, srb int64
}

var golden = []goldenRow{
	{"adpcm", 24577, 314077, 218977, 225877},
	{"bs", 2509, 5509, 2509, 3409},
	{"bsort100", 11453, 35753, 11453, 18653},
	{"cnt", 10702, 32302, 10702, 18302},
	{"cover", 33553, 64053, 35653, 35653},
	{"crc", 20397, 233097, 148997, 174697},
	{"edn", 18349, 63149, 18449, 28849},
	{"expint", 10766, 31966, 10766, 17766},
	{"fdct", 156983, 214583, 156983, 156983},
	{"fft", 20754, 150454, 124654, 125154},
	{"fibcall", 6993, 17293, 6993, 8993},
	{"fir", 11583, 45283, 11583, 22583},
	{"insertsort", 10463, 31063, 10463, 18063},
	{"janne_complex", 9269, 32069, 9269, 16169},
	{"jfdctint", 173725, 236225, 173725, 173725},
	{"ludcmp", 23555, 232555, 121155, 124355},
	{"matmult", 14078, 58978, 14078, 29878},
	{"minver", 14621, 65121, 21921, 31121},
	{"ndes", 161663, 292763, 201663, 203163},
	{"ns", 12686, 93486, 12686, 40386},
	{"nsichneu", 60940, 94540, 60940, 60940},
	{"prime", 10623, 45423, 10623, 21623},
	{"qurt", 24634, 412934, 302634, 335434},
	{"statemate", 41591, 62091, 43791, 43791},
	{"ud", 62331, 853731, 516031, 529331},
}

func TestGoldenResults(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite sweep")
	}
	for _, g := range golden {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			p, err := pwcet.Benchmark(g.name)
			if err != nil {
				t.Fatal(err)
			}
			results, err := pwcet.AnalyzeAll(p, pwcet.Query{Pfail: 1e-4})
			if err != nil {
				t.Fatal(err)
			}
			none, rw, srb := results[pwcet.None], results[pwcet.RW], results[pwcet.SRB]
			if none.FaultFreeWCET != g.ff {
				t.Errorf("fault-free WCET = %d, golden %d", none.FaultFreeWCET, g.ff)
			}
			if none.PWCET != g.none {
				t.Errorf("pWCET none = %d, golden %d", none.PWCET, g.none)
			}
			if rw.PWCET != g.rw {
				t.Errorf("pWCET rw = %d, golden %d", rw.PWCET, g.rw)
			}
			if srb.PWCET != g.srb {
				t.Errorf("pWCET srb = %d, golden %d", srb.PWCET, g.srb)
			}
		})
	}
}

// TestGoldenCategories locks each benchmark's Figure-4 category (1:
// both mechanisms reach fault-free, 2: only RW does, 3: similar gains,
// 4: mixed) as derived from the golden values.
func TestGoldenCategories(t *testing.T) {
	want := map[string]int{
		"fdct": 1, "jfdctint": 1, "nsichneu": 1,
		"bs": 2, "bsort100": 2, "cnt": 2, "expint": 2, "fibcall": 2,
		"fir": 2, "insertsort": 2, "janne_complex": 2, "matmult": 2,
		"ns": 2, "prime": 2,
		"cover": 3, "fft": 3, "ludcmp": 3, "ndes": 3, "statemate": 3, "ud": 3,
		"adpcm": 4, "crc": 4, "edn": 4, "minver": 4, "qurt": 4,
	}
	for _, g := range golden {
		gainRW := 1 - float64(g.rw)/float64(g.none)
		gainSRB := 1 - float64(g.srb)/float64(g.none)
		var cat int
		switch {
		case g.rw == g.ff && g.srb == g.ff:
			cat = 1
		case g.rw == g.ff:
			cat = 2
		case gainRW-gainSRB < 0.02:
			cat = 3
		default:
			cat = 4
		}
		if cat != want[g.name] {
			t.Errorf("%s: category %d, want %d", g.name, cat, want[g.name])
		}
	}
}

func TestGoldenCoversSuite(t *testing.T) {
	names := map[string]bool{}
	for _, g := range golden {
		names[g.name] = true
	}
	for _, n := range pwcet.Benchmarks() {
		if !names[n] {
			t.Errorf("benchmark %s missing from the golden table", n)
		}
	}
	if len(golden) != len(pwcet.Benchmarks()) {
		t.Errorf("golden table has %d rows, suite has %d", len(golden), len(pwcet.Benchmarks()))
	}
}
