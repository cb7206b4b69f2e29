// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI) plus the design ablations (A1–A7).
// Each experiment is a method on Runner returning renderable Tables and
// Figures; Index lists them once, in paper order, for Runner.Run and
// cmd/kpexperiments, and bench_test.go wraps each in a benchmark.
package experiments

import (
	"fmt"
	"strings"
)

// Table is a renderable result table.
type Table struct {
	// Title names the paper artifact, e.g. "Table VI".
	Title string
	// Header holds column names.
	Header []string
	// Rows holds the body, one []string per row.
	Rows [][]string
	// Notes are rendered after the table body.
	Notes []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render formats the table as aligned ASCII.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Series is one plotted line.
type Series struct {
	Name string
	X, Y []float64
}

// Figure is a renderable result figure: the data that regenerates the
// paper's plot, in gnuplot-ready columns.
type Figure struct {
	// Title names the paper artifact, e.g. "Fig 4".
	Title          string
	XLabel, YLabel string
	Series         []Series
	Notes          []string
}

// AddSeries appends a named line.
func (f *Figure) AddSeries(name string, x, y []float64) {
	f.Series = append(f.Series, Series{Name: name, X: x, Y: y})
}

// Render emits the figure as data blocks, one per series.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n# x: %s, y: %s\n", f.Title, f.XLabel, f.YLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "# series: %s\n", s.Name)
		for i := range s.X {
			fmt.Fprintf(&b, "%.6g\t%.6g\n", s.X[i], s.Y[i])
		}
		b.WriteByte('\n')
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// fmtF renders a float with the paper's typical precision.
func fmtF(v float64, decimals int) string {
	return fmt.Sprintf("%.*f", decimals, v)
}
