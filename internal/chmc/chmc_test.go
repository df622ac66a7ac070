package chmc

import "testing"

func TestString(t *testing.T) {
	for c, want := range map[Class]string{
		AlwaysHit: "AH", FirstMiss: "FM", AlwaysMiss: "AM", NotClassified: "NC", Class(9): "?",
	} {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(c), got, want)
		}
	}
}

func TestCountsAsMiss(t *testing.T) {
	if AlwaysHit.CountsAsMiss() || FirstMiss.CountsAsMiss() {
		t.Error("AH/FM must not count as per-execution miss")
	}
	if !AlwaysMiss.CountsAsMiss() || !NotClassified.CountsAsMiss() {
		t.Error("AM/NC must count as per-execution miss (paper setup)")
	}
}
