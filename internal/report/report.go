// Package report regenerates every table and figure of the paper's
// evaluation (Sec. 5). Each experiment function returns structured rows
// and can render itself as an aligned text table that prints our measured
// values next to the paper's published ones, so the shape of every result
// can be compared at a glance. cmd/smbench and the repository's benchmark
// suite are thin wrappers around this package.
package report

import (
	"fmt"
	"strings"
)

// Table is a generic rendered result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	b.WriteString(t.Title)
	b.WriteString("\n")
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteString("\n")
	}
	line(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		b.WriteString("note: " + n + "\n")
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }

// Config carries the experiment-wide knobs.
type Config struct {
	Seed           int64
	SuperblueScale int // divisor on published superblue sizes (default 300)
	ISCASSubset    []string
	PatternWords   int // simulation depth for OER/HD (default 256)
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.SuperblueScale == 0 {
		c.SuperblueScale = 300
	}
	if c.PatternWords == 0 {
		c.PatternWords = 256
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}
