package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/ipet"
	"repro/internal/malardalen"
	"repro/internal/program"
)

// groupTargets are the exceedance targets each distribution of a
// grouped batch is read at.
var groupTargets = []float64{1e-6, 1e-9, 1e-12, 1e-15}

// withTargets expands every base query into one query per target,
// targets outermost, so a group's members are never adjacent in the
// batch and the query at t*len(base)+b reads the distributions of the
// query at index b. Each query gets its own copy of its data cache, so
// groups also join distinct pointers to equal configs.
func withTargets(base []Query) []Query {
	var qs []Query
	for _, tg := range groupTargets {
		for _, q := range base {
			q.TargetExceedance = tg
			if q.DataCache != nil {
				dc := *q.DataCache
				q.DataCache = &dc
			}
			qs = append(qs, q)
		}
	}
	return qs
}

// scribble overwrites one entry of every fault miss map a result owns.
func scribble(r *Result) {
	for _, fmm := range []ipet.FMM{r.FMM, r.DataFMM, r.FMMPrecise} {
		if fmm != nil {
			fmm[0][0] = -1
		}
	}
}

// TestBatchGroupsMatchSoloAnalyze is the contract of grouped batches:
// queries that differ only in their targets share one penalty
// distribution (the very same *dist.Dist), yet every member's result is
// byte-identical to a one-shot Analyze of its query, and its fault miss
// maps are its own. Covered: every mechanism, the legacy Pfail spelling
// next to the equal Permanent scenario, combined and transient
// scenarios, the precise SRB mixture bound, a data cache, and 16- and
// 256-set caches, at Workers 1 (serial) and 4 (fanned out).
func TestBatchGroupsMatchSoloAnalyze(t *testing.T) {
	crc := malardalen.MustGet("crc")
	dc := dcacheConfig()
	cfg256 := cache.Config{Sets: 256, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 100}
	cases := []struct {
		name string
		p    *program.Program
		base []Query
	}{
		{"permanent", crc, []Query{
			{Pfail: 1e-4, Mechanism: cache.MechanismNone},
			{Pfail: 1e-4, Mechanism: cache.MechanismRW},
			{Pfail: 1e-4, Mechanism: cache.MechanismSRB},
			// The first query again, spelled as a scenario: same group.
			{Scenario: fault.Permanent{Pfail: 1e-4}, Mechanism: cache.MechanismNone},
		}},
		{"combined-transient", crc, []Query{
			{Scenario: fault.Combined{Pfail: 1e-4, Lambda: 1e-10}, Mechanism: cache.MechanismNone},
			{Scenario: fault.Combined{Pfail: 1e-4, Lambda: 1e-10}, Mechanism: cache.MechanismSRB},
			{Scenario: fault.Transient{Lambda: 1e-9}},
		}},
		{"precise-srb", crc, []Query{
			{Pfail: 1e-4, Mechanism: cache.MechanismSRB, PreciseSRB: true},
		}},
		{"data-cache", buildDataProgram(), []Query{
			{Pfail: 1e-3, Mechanism: cache.MechanismNone, DataCache: &dc},
			{Pfail: 1e-3, Mechanism: cache.MechanismSRB, DataCache: &dc},
		}},
		{"256-sets", build256SetProgram(t), []Query{
			{Cache: cfg256, Pfail: 1e-3, Mechanism: cache.MechanismNone},
			{Cache: cfg256, Pfail: 1e-3, Mechanism: cache.MechanismSRB},
		}},
	}
	for _, tc := range cases {
		qs := withTargets(tc.base)
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("%s/workers=%d", tc.name, workers)
			e, err := NewEngine(tc.p, EngineOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			batch, err := e.AnalyzeBatch(qs)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			solo := make([]*Result, len(qs))
			for i, q := range qs {
				if solo[i], err = Analyze(tc.p, EngineOptions{Workers: workers}, q); err != nil {
					t.Fatalf("%s query %d: %v", label, i, err)
				}
				requireDeepEqualResult(t, fmt.Sprintf("%s query %d", label, i), solo[i], batch[i])
				first := batch[i%len(tc.base)]
				if batch[i].Penalty != first.Penalty || batch[i].PenaltyPrecise != first.PenaltyPrecise {
					t.Fatalf("%s query %d: does not share the penalty distributions of its group", label, i)
				}
			}
			if tc.name == "permanent" && batch[3].Penalty != batch[0].Penalty {
				t.Fatalf("%s: the legacy Pfail spelling and the equal Permanent scenario do not share a distribution", label)
			}
			// Every fault miss map is its owner's: scribbling on all but
			// the last target's results leaves that target's intact.
			last := len(qs) - len(tc.base)
			for i := range batch[:last] {
				scribble(batch[i])
			}
			for i := last; i < len(qs); i++ {
				requireDeepEqualResult(t, fmt.Sprintf("%s query %d after scribbling", label, i), solo[i], batch[i])
			}
		}
	}
}

// collectBatch runs a streamed batch and returns each query's outcome by
// index.
func collectBatch(ctx context.Context, e *Engine, qs []Query) ([]*Result, []error) {
	results, errs := make([]*Result, len(qs)), make([]error, len(qs))
	e.AnalyzeBatchStreamContext(ctx, qs, func(r BatchResult) {
		results[r.Index], errs[r.Index] = r.Result, r.Err
	})
	return results, errs
}

// sameError reports whether two outcomes failed identically (or both
// succeeded).
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// TestBatchGroupInvalidTargetsFailAlone: grouping ignores the target,
// so a member whose own target is out of range — NaN included — must
// still fail exactly as it would alone, never inherit a valid leader's
// result nor poison the valid members, whichever comes first.
func TestBatchGroupInvalidTargetsFailAlone(t *testing.T) {
	p := buildLoop(t)
	for _, targets := range [][]float64{{1e-9, 1.5, math.NaN()}, {math.NaN(), 1.5, 1e-9}} {
		qs := make([]Query, len(targets))
		for i, tg := range targets {
			qs[i] = Query{Pfail: 1e-4, Mechanism: cache.MechanismSRB, TargetExceedance: tg}
		}
		for _, workers := range []int{1, 4} {
			e, err := NewEngine(p, EngineOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			results, errs := collectBatch(context.Background(), e, qs)
			for i, q := range qs {
				label := fmt.Sprintf("targets %v workers=%d query %d", targets, workers, i)
				solo, soloErr := Analyze(p, EngineOptions{Workers: workers}, q)
				if _, engErr := e.Analyze(q); !sameError(engErr, soloErr) {
					t.Fatalf("%s: engine error %v, one-shot error %v", label, engErr, soloErr)
				}
				if !sameError(errs[i], soloErr) {
					t.Fatalf("%s: batch error %v, solo error %v", label, errs[i], soloErr)
				}
				if soloErr == nil {
					requireDeepEqualResult(t, label, solo, results[i])
				} else if results[i] != nil {
					t.Fatalf("%s: failed member still carries a result", label)
				}
			}
		}
	}
}

// TestBatchGroupErrorsMatchSolo: when a group's analysis fails, every
// member gets the error it would get alone — on a canceled context, and
// on an engine that a panicking leader poisons.
func TestBatchGroupErrorsMatchSolo(t *testing.T) {
	p := buildLoop(t)
	qs := withTargets([]Query{
		{Pfail: 1e-4, Mechanism: cache.MechanismNone},
		{Pfail: 1e-3, Mechanism: cache.MechanismSRB},
	})
	for _, workers := range []int{1, 4} {
		e, err := NewEngine(p, EngineOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, errs := collectBatch(ctx, e, qs)
		for i, q := range qs {
			_, soloErr := e.AnalyzeContext(ctx, q)
			if !errors.Is(errs[i], context.Canceled) || !sameError(errs[i], soloErr) {
				t.Fatalf("workers=%d query %d: canceled batch error %v, solo error %v", workers, i, errs[i], soloErr)
			}
		}

		// One group, so one leader runs first and panics; the other
		// members then run alone on the poisoned engine.
		poisoned, err := NewEngine(p, EngineOptions{
			Workers: workers,
			Hook:    func(ArtifactEvent) { panic("injected hook panic") },
		})
		if err != nil {
			t.Fatal(err)
		}
		group := qs[:0:0]
		for i := 0; i < len(qs); i += 2 {
			group = append(group, qs[i])
		}
		_, errs = collectBatch(context.Background(), poisoned, group)
		var pe *PanicError
		if !errors.As(errs[0], &pe) {
			t.Fatalf("workers=%d: leader error %v, want the *PanicError it gets alone", workers, errs[0])
		}
		for i, q := range group[1:] {
			_, soloErr := poisoned.Analyze(q)
			if !errors.Is(errs[i+1], ErrPoisoned) || !sameError(errs[i+1], soloErr) {
				t.Fatalf("workers=%d member %d: error %v, solo error %v", workers, i+1, errs[i+1], soloErr)
			}
		}
	}
}

// TestBatchGroupDegradedMatchesSolo: when an unmeetable soft deadline
// degrades a group's leader to the floor support cap, every member gets
// the degraded distributions, flagged Degraded and echoing the cap they
// were built under, exactly as the member degrades alone on a fresh
// engine. (The 256-set program keeps every timed attempt slower than
// the deadline, as in TestDegradedModeSoundDominance.)
func TestBatchGroupDegradedMatchesSolo(t *testing.T) {
	p := build256SetProgram(t)
	cfg := cache.Config{Sets: 256, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 100}
	qs := []Query{
		{Cache: cfg, Pfail: 1e-3, Mechanism: cache.MechanismNone, TargetExceedance: 1e-9, SoftDeadline: time.Nanosecond},
		{Cache: cfg, Pfail: 1e-3, Mechanism: cache.MechanismNone, TargetExceedance: 1e-15, SoftDeadline: time.Nanosecond},
	}
	e, err := NewEngine(p, EngineOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := e.AnalyzeBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		fresh, err := NewEngine(p, EngineOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		solo, err := fresh.Analyze(q)
		if err != nil {
			t.Fatal(err)
		}
		if !solo.Degraded {
			t.Fatalf("query %d: solo run not degraded under a 1ns soft deadline", i)
		}
		requireDeepEqualResult(t, fmt.Sprintf("degraded query %d", i), solo, batch[i])
	}
	if batch[1].Penalty != batch[0].Penalty {
		t.Fatal("degraded members do not share their group's distribution")
	}
}
