package report

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	var sb strings.Builder
	err := Table(&sb, []string{"name", "value"}, [][]string{
		{"a", "1"},
		{"long-name", "123456"},
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3", len(lines))
	}
	// Columns align: "value"/"1"/"123456" start at the same offset.
	off := strings.Index(lines[0], "value")
	if !strings.HasPrefix(lines[1][off:], "1") {
		t.Errorf("row 1 misaligned: %q", lines[1])
	}
	if !strings.HasPrefix(lines[2][off:], "123456") {
		t.Errorf("row 2 misaligned: %q", lines[2])
	}
}

func TestTableRowWidthChecked(t *testing.T) {
	var sb strings.Builder
	if err := Table(&sb, []string{"a", "b"}, [][]string{{"only-one"}}); err == nil {
		t.Error("short row accepted")
	}
}

func TestExceedancePlot(t *testing.T) {
	var sb strings.Builder
	// A step curve: quantile 100 above 1e-4, then 900.
	q := func(p float64) int64 {
		if p >= 1e-4 {
			return 100
		}
		return 900
	}
	ExceedancePlot(&sb, 0, 1000, 40, -8, []Curve{{Name: "test", Symbol: 'x', Quantile: q}})
	out := sb.String()
	lines := strings.Split(out, "\n")
	// 5 probability rows (0,-2,-4,-6,-8) + axis + labels + legend.
	if len(lines) < 8 {
		t.Fatalf("plot too short:\n%s", out)
	}
	// The symbol appears on every probability row.
	count := strings.Count(out, "x")
	if count < 5 {
		t.Errorf("symbol drawn %d times, want >= 5:\n%s", count, out)
	}
	// Low-probability rows place the mark to the right of high-probability ones.
	first := strings.Index(lines[0], "x")
	last := strings.Index(lines[4], "x")
	if last <= first {
		t.Errorf("step curve not monotone in the plot (col %d -> %d)", first, last)
	}
	if !strings.Contains(out, "x=test") {
		t.Error("legend missing")
	}
}

func TestExceedancePlotDegenerate(t *testing.T) {
	var sb strings.Builder
	ExceedancePlot(&sb, 5, 5, 40, -4, nil) // hi == lo: no output, no panic
	if sb.Len() != 0 {
		t.Error("degenerate plot produced output")
	}
}
