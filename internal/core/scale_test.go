package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/program"
)

// TestScalability analyzes a program several times the size of the
// largest suite benchmark (thousands of blocks after inlining) and
// checks the pipeline completes in reasonable time. This guards the
// dense-simplex and fixpoint implementations against accidental
// super-quadratic regressions.
func TestScalability(t *testing.T) {
	if testing.Short() {
		t.Skip("scalability test")
	}
	b := program.New("huge")
	main := b.Func("main").Ops(64)
	for phase := 0; phase < 16; phase++ {
		name := fmt.Sprintf("phase%d", phase)
		main.Call(name).Call(name2(phase))
		pb := b.Func(name).Ops(20)
		pb.Loop(8, func(l *program.Body) {
			for i := 0; i < 8; i++ {
				l.If(func(then *program.Body) { then.Ops(12) },
					func(els *program.Body) { els.Ops(10) })
			}
			l.Ops(8)
		})
		b.Func(name2(phase)).Loop(4, func(l *program.Body) {
			l.Switch(
				func(c *program.Body) { c.Ops(9) },
				func(c *program.Body) { c.Ops(11) },
				func(c *program.Body) { c.Ops(7) },
			)
		})
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("huge program: %d blocks, %d loops, %d bytes",
		len(p.Blocks), len(p.Loops), p.CodeBytes())
	if len(p.Blocks) < 300 {
		t.Fatalf("test construction too small: %d blocks", len(p.Blocks))
	}

	start := time.Now()
	results, err := AnalyzeAll(p, EngineOptions{}, Query{Pfail: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	t.Logf("AnalyzeAll on %d blocks took %v", len(p.Blocks), elapsed)
	if elapsed > 2*time.Minute {
		t.Errorf("analysis took %v; the pipeline has regressed badly", elapsed)
	}
	none := results[cache.MechanismNone]
	if none.FaultFreeWCET <= 0 || none.PWCET < none.FaultFreeWCET {
		t.Error("implausible results on the huge program")
	}
}

func name2(phase int) string { return fmt.Sprintf("aux%d", phase) }
