package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/absint"
	"repro/internal/batchspec"
	"repro/internal/cache"
	"repro/internal/cfg"
	"repro/internal/chmc"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/ipet"
	"repro/internal/program"
)

// span is one timed interval of the traced run. Spans of one request
// share Req; a layer span's Parent is the request span it belongs to.
// CPU is the process CPU time spent over the span: the engine splits its
// stages over goroutines and the collector runs beside both the engine
// and the replay, so layer time is compared with engine time in CPU.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	CPU    int64  `json:"cpu_ns"`
}

// mark is a point in wall and process CPU time.
type mark struct {
	wall time.Time
	cpu  time.Duration
}

func now() mark { return mark{wall: time.Now(), cpu: cpuTime()} }

// tracer keeps the traced run's spans in memory; they are written out
// only when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record stores the span from one mark to another and returns its id.
func (t *tracer) record(name string, req, parent int64, from, to mark) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: from.wall.Sub(t.t0).Nanoseconds(), End: to.wall.Sub(t.t0).Nanoseconds(),
		CPU: int64(to.cpu - from.cpu)})
	return id
}

// spanTotals sums the spans of one name.
type spanTotals struct {
	wall, cpu time.Duration
	n         int
}

// sums totals the spans of the requests with id >= firstReq by name.
func (t *tracer) sums(firstReq int64) map[string]spanTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]spanTotals)
	for _, s := range t.spans {
		if s.Req >= firstReq {
			st := out[s.Name]
			st.wall += time.Duration(s.End - s.Start)
			st.cpu += time.Duration(s.CPU)
			st.n++
			out[s.Name] = st
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// replayMemo mirrors one engine's memo: the artifacts the replay holds
// for one program, keyed as the engine keys them.
type replayMemo struct {
	prog     *program.Program
	pristine *ipet.System
	classes  map[cache.Config]*replayClass
	ctxs     map[cache.Config]*replayCtx
}

type replayClass struct {
	a    *absint.Analyzer
	base []chmc.Class
	srb  []bool
}

type replayCtx struct {
	sys  *ipet.System
	wcet *ipet.WCETResult
	core ipet.FMM
	cols map[cache.Mechanism]ipet.FMM
	hb   ipet.HitBounds
}

func newReplayMemo(p *program.Program) *replayMemo {
	return &replayMemo{prog: p, classes: make(map[cache.Config]*replayClass), ctxs: make(map[cache.Config]*replayCtx)}
}

// replayCounts are the counts the replay takes at the layer boundaries.
type replayCounts struct {
	binomialAtoms int64
	convolveCalls int64
	capBound      int64
	supportOut    int64
}

// replayer re-runs one request's work through the public layer
// functions, outside the engine call's timing. An artifact is
// recomputed and timed exactly when the engine's Hook fired for it in
// the request; one the replay lacks but the engine had memoized is
// built untimed.
type replayer struct {
	tr     *tracer
	req    int64
	parent int64
	fired  map[core.ArtifactEvent]bool
	counts *replayCounts
	cpu    time.Duration // CPU time of the recorded layer spans
	err    error
}

// layer runs f, recording it as a span when timed.
func (r *replayer) layer(name string, timed bool, f func()) {
	from := now()
	f()
	if timed {
		to := now()
		r.tr.record(name, r.req, r.parent, from, to)
		r.cpu += to.cpu - from.cpu
	}
}

// take reports whether the engine computed the artifact in this request
// and consumes the event, so the replay times each computation once.
func (r *replayer) take(ev core.ArtifactEvent) bool {
	fired := r.fired[ev]
	delete(r.fired, ev)
	return fired
}

func (r *replayer) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// replay re-runs the request and returns the rows it derives, which
// must equal the engine's byte for byte. built says the engine was
// created inside the request, so its construction is replayed too.
func (r *replayer) replay(m *replayMemo, built bool, prog string, qs []core.Query) [][]byte {
	if built || m.pristine == nil {
		r.layer("cfg.verify", built, func() {
			if err := cfg.VerifyLoopMetadata(m.prog); err != nil {
				r.fail(err)
			} else if !cfg.Reducible(m.prog) {
				r.fail(fmt.Errorf("%s: irreducible control flow", prog))
			}
		})
		r.layer("ipet.system", built, func() {
			sys, err := ipet.NewSystem(m.prog)
			if err != nil {
				r.fail(err)
			}
			m.pristine = sys
		})
	}
	rows := make([][]byte, len(qs))
	for i, q := range qs {
		if r.err != nil {
			return nil
		}
		rows[i] = r.query(m, prog, q)
	}
	if r.err != nil {
		return nil
	}
	return rows
}

// context returns the replayed classification and WCET context of one
// cache, rebuilding what the engine computed in this request.
func (r *replayer) context(m *replayMemo, c cache.Config) (*replayClass, *replayCtx) {
	cl := m.classes[c]
	timed := r.take(core.ArtifactEvent{Artifact: core.ArtifactClassification, Cache: c})
	if cl == nil || timed {
		cl = &replayClass{}
		r.layer("absint.classify", timed, func() {
			cl.a = absint.New(m.prog, c)
			cl.base = cl.a.ClassifyAll()
		})
		m.classes[c] = cl
	}
	ctx := m.ctxs[c]
	timed = r.take(core.ArtifactEvent{Artifact: core.ArtifactWCET, Cache: c})
	if ctx == nil || timed {
		ctx = &replayCtx{cols: make(map[cache.Mechanism]ipet.FMM)}
		r.layer("ipet.wcet", timed, func() {
			ctx.sys = m.pristine.Clone()
			w, err := ipet.WCETCombined(ctx.sys, cl.a, cl.base, nil, nil)
			if err != nil {
				r.fail(err)
			}
			ctx.wcet = w
		})
		m.ctxs[c] = ctx
	}
	return cl, ctx
}

// fmm splices the mechanism's fault miss map from the replayed core and
// f = W column, as the engine does.
func (r *replayer) fmm(cl *replayClass, ctx *replayCtx, c cache.Config, mech cache.Mechanism) ipet.FMM {
	timed := r.take(core.ArtifactEvent{Artifact: core.ArtifactFMMCore, Cache: c, Mechanism: cache.MechanismRW})
	if ctx.core == nil || timed {
		r.layer("ipet.fmm", timed, func() {
			f, err := ipet.ComputeFMM(ctx.sys, cl.a, cl.base, ipet.FMMOptions{Mechanism: cache.MechanismRW, Workers: 1})
			if err != nil {
				r.fail(err)
			}
			ctx.core = f
		})
	}
	var column ipet.FMM
	if mech != cache.MechanismRW {
		opt := ipet.FMMOptions{Mechanism: mech, OnlyWholeSetColumn: true, Workers: 1}
		if mech == cache.MechanismSRB {
			timed := r.take(core.ArtifactEvent{Artifact: core.ArtifactSRBClassification, Cache: c})
			if cl.srb == nil || timed {
				r.layer("absint.srb", timed, func() { cl.srb = cl.a.ClassifySRB() })
			}
			opt.SRBHit = cl.srb
		}
		timed := r.take(core.ArtifactEvent{Artifact: core.ArtifactFMMColumn, Cache: c, Mechanism: mech})
		if ctx.cols[mech] == nil || timed {
			r.layer("ipet.fmm", timed, func() {
				f, err := ipet.ComputeFMM(ctx.sys, cl.a, cl.base, opt)
				if err != nil {
					r.fail(err)
				}
				ctx.cols[mech] = f
			})
		}
		column = ctx.cols[mech]
	}
	if r.err != nil {
		return nil
	}
	out := make(ipet.FMM, len(ctx.core))
	for s, row := range ctx.core {
		out[s] = append([]int64(nil), row...)
		if column != nil {
			out[s][c.Ways] = column[s][c.Ways]
		}
	}
	return out
}

// query replays one query's distribution stage — weighting, the per-set
// reduction, the fold and the quantile — and returns its row.
func (r *replayer) query(m *replayMemo, prog string, q core.Query) []byte {
	c := q.Cache
	target := q.TargetExceedance
	if target == 0 {
		target = core.DefaultTargetExceedance
	}
	maxSupport := core.DefaultMaxSupport
	scn := q.Scenario
	if scn == nil {
		scn = fault.Permanent{Pfail: q.Pfail}
	}
	pfail, lambda := fault.Components(scn)
	kind := scn.Kind()

	cl, ctx := r.context(m, c)
	if r.err != nil {
		return nil
	}
	penalty := dist.Degenerate(0)
	if kind != fault.KindTransient {
		fmm := r.fmm(cl, ctx, c, q.Mechanism)
		if r.err != nil {
			return nil
		}
		var perSet []*dist.Dist
		r.layer("fault.weight", true, func() {
			model, err := fault.NewModel(pfail, c)
			if err != nil {
				r.fail(err)
				return
			}
			pwf := fault.PWF(c.Ways, model.PBF)
			if q.Mechanism == cache.MechanismRW {
				pwf = fault.PWFReliableWay(c.Ways, model.PBF)
			}
			perSet = make([]*dist.Dist, c.Sets)
			for s := range perSet {
				pts := make([]dist.Point, len(pwf))
				for f, p := range pwf {
					pts[f] = dist.Point{Value: fmm[s][f] * c.MissPenalty(), Prob: p}
				}
				d, err := dist.New(pts)
				if err != nil {
					r.fail(err)
					return
				}
				perSet[s] = d
			}
		})
		if r.err != nil {
			return nil
		}
		penalty = r.reduce(penalty, perSet, maxSupport)
	}
	if kind != fault.KindPermanent {
		timed := r.take(core.ArtifactEvent{Artifact: core.ArtifactTransientBound, Cache: c})
		if ctx.hb == nil || timed {
			r.layer("ipet.hitbound", timed, func() {
				hb, err := ipet.ComputeHitBounds(ctx.sys, cl.a, cl.base, ipet.HitBoundOptions{Workers: 1})
				if err != nil {
					r.fail(err)
				}
				ctx.hb = hb
			})
		}
		if r.err != nil {
			return nil
		}
		window := ctx.wcet.WCET + penalty.Max() + c.MissPenalty()*ctx.hb.Total()
		tm, err := fault.NewTransientModel(lambda, window)
		if err != nil {
			r.fail(err)
			return nil
		}
		if tm.PMiss != 0 {
			perSet := make([]*dist.Dist, len(ctx.hb))
			r.layer("fault.binomial", true, func() {
				for s, n := range ctx.hb {
					pts, err := fault.BinomialPoints(n, tm.PMiss, c.MissPenalty())
					if err != nil {
						r.fail(err)
						return
					}
					r.counts.binomialAtoms += int64(len(pts))
					d, err := dist.New(pts)
					if err != nil {
						r.fail(err)
						return
					}
					perSet[s] = d.CoarsenToWith(maxSupport, dist.CoarsenLeastError)
				}
			})
			if r.err != nil {
				return nil
			}
			penalty = r.reduce(penalty, perSet, maxSupport)
		}
	}
	var quantile int64
	r.layer("dist.quantile", true, func() { quantile = penalty.QuantileExceedance(target) })
	res := &core.Result{FaultFreeWCET: ctx.wcet.WCET, PWCET: ctx.wcet.WCET + quantile}
	row, err := json.Marshal(batchspec.RowOf(prog, q, res))
	if err != nil {
		r.fail(err)
	}
	return row
}

// reduce convolves the per-set distributions and folds the total into
// the accumulated penalty.
func (r *replayer) reduce(acc *dist.Dist, perSet []*dist.Dist, maxSupport int) *dist.Dist {
	var total *dist.Dist
	r.layer("dist.convolve_all", true, func() {
		total = dist.ConvolveAllWith(perSet, maxSupport, 1, dist.CoarsenLeastError)
	})
	r.counts.convolveCalls++
	r.counts.supportOut += int64(total.Len())
	if total.Len() >= maxSupport {
		r.counts.capBound++
	}
	r.layer("dist.fold", true, func() {
		acc = acc.Convolve(total).CoarsenToWith(maxSupport, dist.CoarsenLeastError)
	})
	return acc
}
