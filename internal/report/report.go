// Package report renders analysis results as text: aligned tables and
// ASCII exceedance plots (the Figure 3 style). It is shared by the
// command-line tools and tested independently of them.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table writes rows under a header with columns padded to their widest
// cell. All rows must have len(header) cells.
func Table(w io.Writer, header []string, rows [][]string) error {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		if len(row) != len(header) {
			return fmt.Errorf("report: row has %d cells, header %d", len(row), len(header))
		}
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(header)
	for _, row := range rows {
		line(row)
	}
	return nil
}

// Curve is one exceedance curve of a plot: Quantile(p) must return the
// pWCET at exceedance probability p.
type Curve struct {
	Name     string
	Symbol   byte
	Quantile func(p float64) int64
}

// ExceedancePlot renders curves in the paper's Figure 3 style: the y
// axis spans probability decades from 1 down to 10^minExp, the x axis
// spans [lo, hi] cycles linearly. Curves are drawn by their symbol; on
// collisions the later curve wins (draw the most important last).
func ExceedancePlot(w io.Writer, lo, hi int64, width int, minExp int, curves []Curve) {
	if hi <= lo || width < 8 {
		return
	}
	col := func(x int64) int {
		c := int(float64(width-1) * float64(x-lo) / float64(hi-lo))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}
	for exp := 0; exp >= minExp; exp -= 2 {
		p := math.Pow(10, float64(exp))
		line := []byte(strings.Repeat(" ", width))
		for _, c := range curves {
			line[col(c.Quantile(p))] = c.Symbol
		}
		fmt.Fprintf(w, "1e%-4d |%s\n", exp, string(line))
	}
	fmt.Fprintf(w, "       +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(w, "        %-12d%*d (cycles)\n", lo, width-12, hi)
	var legend []string
	for _, c := range curves {
		legend = append(legend, fmt.Sprintf("%c=%s", c.Symbol, c.Name))
	}
	fmt.Fprintf(w, "        %s\n", strings.Join(legend, ", "))
}
