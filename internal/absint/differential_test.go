package absint

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/chmc"
	"repro/internal/malardalen"
	"repro/internal/progen"
	"repro/internal/program"
)

// diffConfigs are the cache geometries the compact domain is pitted
// against the reference on: the paper's 16-set cache, a 256-set
// geometry where per-set universes get sparse (many empty sets), and a
// 64-set 8-way cache, where one fixpoint at W = 8 serves seven degraded
// associativities.
func diffConfigs() []cache.Config {
	return []cache.Config{
		cache.PaperConfig(),
		{Sets: 256, Ways: 4, BlockBytes: 16, HitLatency: 1, MemLatency: 100},
		{Sets: 4, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 10},
		{Sets: 64, Ways: 8, BlockBytes: 16, HitLatency: 1, MemLatency: 100},
	}
}

// assertSameClassification compares the compact and reference
// classifications of one program/config across full classification,
// every per-set effective associativity from 0 to Ways+1 (one above
// Ways makes the compact path iterate above the configuration), and
// the shared-fixpoint path that classifies every associativity of a
// set in one call.
func assertSameClassification(t *testing.T, name string, p *program.Program, cfg cache.Config) {
	t.Helper()
	fast := New(p, cfg)
	ref := NewReference(p, cfg)

	fa, ra := fast.ClassifyAll(), ref.ClassifyAll()
	for i := range fa {
		if fa[i] != ra[i] {
			t.Fatalf("%s/%v: ClassifyAll ref %d: %v vs reference %v", name, cfg, i, fa[i], ra[i])
		}
	}
	for set := 0; set < cfg.Sets; set++ {
		refs := fast.RefsOfSet(set)
		// The per-set index must be exactly the filtered global list.
		want := 0
		for _, r := range fast.Refs() {
			if r.Set == set {
				if refs[want] != r {
					t.Fatalf("%s/%v: RefsOfSet(%d)[%d] = %+v, want %+v", name, cfg, set, want, refs[want], r)
				}
				want++
			}
		}
		if want != len(refs) {
			t.Fatalf("%s/%v: RefsOfSet(%d) has %d refs, want %d", name, cfg, set, len(refs), want)
		}
		byAssoc := make([][]chmc.Class, cfg.Ways+2)
		for assoc := range byAssoc {
			byAssoc[assoc] = make([]chmc.Class, len(fast.Refs()))
		}
		fast.ClassifySetByAssocInto(byAssoc, set)
		for assoc := 0; assoc <= cfg.Ways+1; assoc++ {
			fc, rc := classifySetAt(fast, set, assoc), classifySetAt(ref, set, assoc)
			for _, r := range refs {
				if fc[r.Global] != rc[r.Global] {
					t.Fatalf("%s/%v: set %d assoc %d ref %d: %v vs reference %v",
						name, cfg, set, assoc, r.Global, fc[r.Global], rc[r.Global])
				}
				if b := byAssoc[assoc][r.Global]; b != rc[r.Global] {
					t.Fatalf("%s/%v: set %d assoc %d ref %d: shared fixpoint %v vs reference %v",
						name, cfg, set, assoc, r.Global, b, rc[r.Global])
				}
			}
		}
	}
}

// TestCompactDomainMatchesReferenceMalardalen: compact vs reference
// classifications must be identical on real benchmarks across the 16-
// and 256-set geometries, for every set and effective associativity.
func TestCompactDomainMatchesReferenceMalardalen(t *testing.T) {
	for _, name := range []string{"adpcm", "crc", "matmult", "bs"} {
		p := malardalen.MustGet(name)
		for _, cfg := range diffConfigs() {
			t.Run(fmt.Sprintf("%s/sets=%d", name, cfg.Sets), func(t *testing.T) {
				assertSameClassification(t, name, p, cfg)
			})
		}
	}
}

// TestCompactDomainMatchesReferenceRandom fuzzes the comparison over
// random structured programs (loops, branches, calls).
func TestCompactDomainMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 30; iter++ {
		p := progen.Random(rng, progen.DefaultParams())
		cfg := cache.Config{
			Sets:       []int{2, 4, 8, 16}[rng.Intn(4)],
			Ways:       1 + rng.Intn(8),
			BlockBytes: []int{8, 16}[rng.Intn(2)],
			HitLatency: 1,
			MemLatency: 10,
		}
		assertSameClassification(t, fmt.Sprintf("random-%d", iter), p, cfg)
	}
}

// TestClassifySetByAssocIntoReusesBuffer: one buffer reused across
// every (set, associativity) pair — the FMM's access pattern — must
// yield the same per-set entries as fresh buffers; stale entries may
// only ever survive for other sets.
func TestClassifySetByAssocIntoReusesBuffer(t *testing.T) {
	p := malardalen.MustGet("crc")
	cfg := cache.PaperConfig()
	a := New(p, cfg)
	buf := make([]chmc.Class, len(a.Refs()))
	for set := 0; set < cfg.Sets; set++ {
		for assoc := cfg.Ways; assoc >= 0; assoc-- {
			a.ClassifySetByAssocInto(atAssoc(buf, assoc), set)
			fresh := classifySetAt(a, set, assoc)
			for _, r := range a.RefsOfSet(set) {
				if buf[r.Global] != fresh[r.Global] {
					t.Fatalf("set %d assoc %d ref %d: reused buffer %v, fresh %v",
						set, assoc, r.Global, buf[r.Global], fresh[r.Global])
				}
			}
		}
	}
}
