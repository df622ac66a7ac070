package absint

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/progen"
)

// TestClassificationDeterministic guards the //pwcetlint:ordered
// directives in domain.go: the reference domain iterates Go maps, and
// every such loop is annotated as order-insensitive. If any annotation
// is wrong, two runs over fresh analyzers diverge somewhere in this
// sweep — map iteration order is randomized per run by the runtime.
func TestClassificationDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 10; iter++ {
		p := progen.Random(rng, progen.DefaultParams())
		cfg := cache.Config{
			Sets:       []int{2, 4, 8}[rng.Intn(3)],
			Ways:       1 + rng.Intn(4),
			BlockBytes: []int{8, 16}[rng.Intn(2)],
			HitLatency: 1,
			MemLatency: 10,
		}
		name := fmt.Sprintf("random-%d", iter)
		for _, mk := range []struct {
			kind string
			run  func() interface{}
		}{
			{"reference", func() interface{} {
				a := NewReference(p, cfg)
				out := [][]interface{}{{a.ClassifyAll()}}
				for set := 0; set < cfg.Sets; set++ {
					for assoc := 0; assoc <= cfg.Ways; assoc++ {
						out = append(out, []interface{}{classifySetAt(a, set, assoc)})
					}
				}
				return out
			}},
			{"compact", func() interface{} {
				a := New(p, cfg)
				out := [][]interface{}{{a.ClassifyAll()}}
				for set := 0; set < cfg.Sets; set++ {
					for assoc := 0; assoc <= cfg.Ways; assoc++ {
						out = append(out, []interface{}{classifySetAt(a, set, assoc)})
					}
				}
				return out
			}},
		} {
			first := mk.run()
			second := mk.run()
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("%s/%s: two runs over fresh analyzers disagree — a map iteration in the domain is order-sensitive", name, mk.kind)
			}
		}
	}
}
