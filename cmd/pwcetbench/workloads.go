package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/malardalen"
)

// A workload is one closed-loop traffic mix: its clients each send the
// next request only when the previous one has delivered its last row,
// as the sweep clients of the analyzer do.
type workload struct {
	name    string
	why     string
	clients int
	serve   bool
	// programs are the suite programs the in-process target builds at
	// setup; longLived engines are built and warmed there too.
	programs  []string
	longLived bool
	// warm are the queries every long-lived engine answers at setup, so
	// the measured requests hit memoized artifacts.
	warm []core.Query
	// round returns one round of the request deck in seeded order.
	round func(rng *rand.Rand) []request
}

// request is one unit of client work: an in-process batch of queries
// against one program's engine, or one batch spec posted to the
// service.
type request struct {
	prog    string
	queries []core.Query
	fresh   bool   // analyze on a new engine instead of the long-lived one
	spec    string // serve-churn: the /v1/batch body
	rows    int
}

// String identifies the request for sequence comparisons and failures.
func (r request) String() string {
	if r.spec != "" {
		return r.spec
	}
	return fmt.Sprintf("%s %d queries %s", r.prog, len(r.queries), queryKey(r.prog, r.queries[0]))
}

// queryKey names one query of one program: the identity under which
// its first answer is memoized for the repeat check.
func queryKey(prog string, q core.Query) string {
	return fmt.Sprintf("%s|%+v|%v|%g|%v|%g", prog, q.Cache, q.Scenario, q.Pfail, q.Mechanism, q.TargetExceedance)
}

// cache256 is the 16 KiB, 256-set, 4-way cache of the warm workloads.
func cache256() cache.Config {
	c := cache.PaperConfig()
	c.Sets = 256
	return c
}

var (
	warmPrograms = []string{"adpcm", "ud", "qurt", "fft", "ludcmp"}
	mechsNoneSRB = []cache.Mechanism{cache.MechanismNone, cache.MechanismSRB}
)

// workloads lists the benchmark's workloads in their default order.
// Each round is a seeded permutation of a fixed deck, so the seed
// changes the order of requests but every round carries the same mix:
// runs with different seeds measure the same work.
var workloads = []*workload{
	{
		name:     "geometry-sweep",
		why:      "cold engine per request, so absint and ipet dominate and dist barely shows",
		clients:  1,
		programs: malardalen.Names(),
		round: func(rng *rand.Rand) []request {
			var deck []request
			for _, prog := range malardalen.Names() {
				for _, sets := range []int{16, 32, 64, 128} {
					for _, ways := range []int{2, 4, 8} {
						c := cache.PaperConfig()
						c.Sets, c.Ways = sets, ways
						var qs []core.Query
						for _, m := range []cache.Mechanism{cache.MechanismRW, cache.MechanismSRB} {
							for _, pf := range []float64{1e-6, 1e-5} {
								qs = append(qs, core.Query{Cache: c, Pfail: pf, Mechanism: m})
							}
						}
						deck = append(deck, request{prog: prog, queries: qs, fresh: true, rows: len(qs)})
					}
				}
			}
			return shuffle(rng, deck)
		},
	},
	{
		name:      "pfail-sweep-256",
		why:       "warm engines, so fault weighting and ConvolveAll at the 4096 cap dominate and absint and ipet are bypassed",
		clients:   1,
		programs:  warmPrograms,
		longLived: true,
		warm:      warmQueries(false),
		round: func(rng *rand.Rand) []request {
			var deck []request
			for _, prog := range warmPrograms {
				for _, pf := range []float64{1e-7, 1e-6, 1e-5, 1e-4, 1e-3} {
					var qs []core.Query
					for _, m := range mechsNoneSRB {
						for _, tg := range []float64{1e-9, 1e-15} {
							qs = append(qs, core.Query{Cache: cache256(), Pfail: pf, Mechanism: m, TargetExceedance: tg})
						}
					}
					deck = append(deck, request{prog: prog, queries: qs, rows: len(qs)})
				}
			}
			return shuffle(rng, deck)
		},
	},
	{
		name:      "combined-256",
		why:       "warm engines, so wide binomials per set and the large permanent-transient fold dominate",
		clients:   1,
		programs:  warmPrograms,
		longLived: true,
		warm:      warmQueries(true),
		round: func(rng *rand.Rand) []request {
			var combined, transient []request
			for _, prog := range warmPrograms {
				for _, la := range []float64{1e-11, 1e-10, 1e-9} {
					transient = append(transient, request{prog: prog, rows: 1, queries: []core.Query{
						{Cache: cache256(), Scenario: fault.Transient{Lambda: la}},
					}})
					for _, pf := range []float64{1e-6, 1e-5, 1e-4} {
						var qs []core.Query
						for _, m := range mechsNoneSRB {
							qs = append(qs, core.Query{Cache: cache256(), Scenario: fault.Combined{Pfail: pf, Lambda: la}, Mechanism: m})
						}
						combined = append(combined, request{prog: prog, queries: qs, rows: len(qs)})
					}
				}
			}
			// Every 4th request is a pure transient query: 45 combined and
			// 15 transient requests interleave exactly into one round.
			combined, transient = shuffle(rng, combined), shuffle(rng, transient)
			out := make([]request, 0, len(combined)+len(transient))
			for len(combined) > 0 {
				out = append(out, combined[:3]...)
				out = append(out, transient[0])
				combined, transient = combined[3:], transient[1:]
			}
			return out
		},
	},
	{
		name:    "serve-churn",
		why:     "two loopback clients churn the engine pool and the artifact LRU through spec parsing and NDJSON streaming",
		clients: 2,
		serve:   true,
		round: func(rng *rand.Rand) []request {
			return shuffle(rng, specPool())
		},
	},
}

// warmQueries are the setup queries of a long-lived engine: one per
// mechanism, plus a transient one that builds the hit bounds.
func warmQueries(transient bool) []core.Query {
	qs := []core.Query{
		{Cache: cache256(), Pfail: 1e-4, Mechanism: cache.MechanismNone},
		{Cache: cache256(), Pfail: 1e-4, Mechanism: cache.MechanismRW},
		{Cache: cache256(), Pfail: 1e-4, Mechanism: cache.MechanismSRB},
	}
	if transient {
		qs = append(qs, core.Query{Cache: cache256(), Scenario: fault.Transient{Lambda: 1e-10}})
	}
	return qs
}

// Serve-churn spec pool. The pool is fixed (its generator has its own
// constant seed); the run's seed only orders the draws from it.
const (
	specPoolSize = 64
	specPoolSeed = 20160314
	// Pool sizing: two resident engines for eight programs forces whole-
	// engine eviction, and a per-engine artifact budget below two 256-set
	// working sets forces artifact eviction and recomputation.
	serveMaxEngines     = 2
	serveArtifactBudget = 160 << 10
)

// servePrograms are mid-sized suite programs whose per-engine artifacts
// fit one 256-set working set inside the budget, so eviction churns
// contexts instead of thrashing every query.
var servePrograms = []string{"crc", "edn", "fft", "ludcmp", "matmult", "minver", "ndes", "qurt"}

// specPool builds the 64 serve-churn specs: 1-3 programs, two pfails,
// all three mechanisms, a cache of 16, 64 or 256 sets, and a combined
// fault model in one spec of four.
func specPool() []request {
	rng := rand.New(rand.NewSource(specPoolSeed))
	pfails := []float64{1e-6, 1e-5, 1e-4, 1e-3}
	pool := make([]request, specPoolSize)
	for i := range pool {
		n := 1 + rng.Intn(3)
		perm := rng.Perm(len(servePrograms))[:n]
		progs := make([]string, n)
		for j, p := range perm {
			progs[j] = servePrograms[p]
		}
		c := cache.PaperConfig()
		c.Sets = []int{16, 64, 256}[rng.Intn(3)]
		pf := rng.Intn(len(pfails) - 1)
		spec := map[string]any{
			"benchmarks": progs,
			"pfails":     pfails[pf : pf+2],
			"cache": map[string]any{
				"sets": c.Sets, "ways": c.Ways, "block_bytes": c.BlockBytes,
				"hit_latency": c.HitLatency, "mem_latency": c.MemLatency,
			},
		}
		if i%4 == 3 {
			spec["fault_model"] = "combined"
			spec["lambdas"] = []float64{1e-10}
		}
		body, err := json.Marshal(spec)
		if err != nil {
			panic(err) // literal maps of strings and numbers always marshal
		}
		pool[i] = request{spec: string(body), rows: n * 2 * 3}
	}
	return pool
}

func shuffle(rng *rand.Rand, deck []request) []request {
	out := make([]request, len(deck))
	for i, j := range rng.Perm(len(deck)) {
		out[i] = deck[j]
	}
	return out
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sequence is a workload's infinite seeded request stream: round after
// round of the deck. It is safe for concurrent clients; the stream's
// order depends only on the seed, whichever client takes each request.
type sequence struct {
	mu    sync.Mutex
	rng   *rand.Rand
	round func(*rand.Rand) []request
	buf   []request
}

func newSequence(w *workload, seed int64) *sequence {
	return &sequence{rng: rand.New(rand.NewSource(seed)), round: w.round}
}

func (s *sequence) next() request {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) == 0 {
		s.buf = s.round(s.rng)
	}
	r := s.buf[0]
	s.buf = s.buf[1:]
	return r
}
