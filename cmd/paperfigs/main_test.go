package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for paperfigs: a test
// re-executes itself with -paperfigs first, and the child runs main on
// the arguments that follow, so the goldens pin the command's own
// stdout, flag parsing included.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-paperfigs" {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFiguresGolden pins the stdout bytes of every figure at the
// default pfail and target: Figure 1's direct distribution path,
// Figure 3's engine batch with its CSV and ASCII plot, Figure 4's
// 25-benchmark sweep and the gain summary. Figure 4 fans its
// benchmarks out over -workers, so it also runs serially and at four
// workers against the same golden.
func TestFiguresGolden(t *testing.T) {
	cases := []struct {
		name, golden string
		args         []string
	}{
		{"fig1", "fig1", []string{"-fig", "1"}},
		{"fig3", "fig3", []string{"-fig", "3"}},
		{"fig4", "fig4", []string{"-fig", "4"}},
		{"fig4-workers1", "fig4", []string{"-fig", "4", "-workers", "1"}},
		{"fig4-workers4", "fig4", []string{"-fig", "4", "-workers", "4"}},
		{"gains", "gains", []string{"-fig", "gains"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(os.Args[0], append([]string{"-paperfigs"}, tc.args...)...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%v: %v: %s", tc.args, err, stderr.String())
			}
			if string(out) == string(want) {
				return
			}
			g, w := strings.Split(string(out), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(g) && i < len(w); i++ {
				if g[i] != w[i] {
					t.Fatalf("%v: line %d differs from the golden\n got: %s\nwant: %s", tc.args, i+1, g[i], w[i])
				}
			}
			t.Fatalf("%v: %d lines, golden has %d", tc.args, len(g), len(w))
		})
	}
}
