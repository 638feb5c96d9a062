// Package stats provides the small aggregation and table-rendering
// toolkit used by the experiment harness (internal/exp): summary
// statistics over repeated trials, log-log growth-exponent fits for
// checking asymptotic claims, and aligned-text / markdown / CSV table
// output.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Summary aggregates a sample of measurements.
type Summary struct {
	Count  int
	Mean   float64
	Min    float64
	Max    float64
	StdDev float64
}

// Summarize computes summary statistics over xs. The zero Summary is
// returned for an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{Count: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// SummarizeInts is Summarize over integer measurements.
func SummarizeInts(xs []int) Summary {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return Summarize(fs)
}

// GrowthExponent fits y ≈ c·x^e by least squares on log-log scale and
// returns the exponent e. It is the harness's check that a measured
// question-count series has the polynomial degree a theorem claims
// (e.g. ≈1 for n lg n up to the log factor, ≈θ for n^θ). Points with
// non-positive coordinates are skipped; fewer than two usable points
// yield NaN.
func GrowthExponent(xs, ys []float64) float64 {
	var lx, ly []float64
	for i := range xs {
		if i < len(ys) && xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	if len(lx) < 2 {
		return math.NaN()
	}
	n := float64(len(lx))
	var sx, sy, sxx, sxy float64
	for i := range lx {
		sx += lx[i]
		sy += ly[i]
		sxx += lx[i] * lx[i]
		sxy += lx[i] * ly[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return math.NaN()
	}
	return (n*sxy - sx*sy) / den
}

// Table is a simple column-oriented result table with a title and
// optional per-table notes, rendered as aligned text, markdown or
// CSV.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
			continue
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a free-text note rendered under the table.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// FormatFloat renders a float compactly: integers without decimals,
// otherwise two decimal places.
func FormatFloat(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

// Text renders the table as aligned plain text.
func (t *Table) Text() string {
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
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "## %s\n\n", t.Title)
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
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Columns, " | "))
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(sep, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(row, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (quotes only when
// needed).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
