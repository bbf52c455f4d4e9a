package expt

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
)

// Result is the output of one experiment runner: a typed table (the paper's
// reported rows), the claims decided on it, and optional per-round series
// (the paper's curves).
type Result struct {
	// ID is the experiment id ("fig5", "table1", ...).
	ID string
	// Title describes the experiment.
	Title string
	// Cols names the table columns and says how each renders.
	Cols []Col
	// Rows are the table cells, row-major, one per column.
	Rows [][]Cell
	// Claims are the verdicts on this run: the paper's claims, decided from
	// Rows, and the system experiments' contracts.
	Claims []Claim
	// Series holds named per-round traces (used by the curve figures).
	Series map[string][]float64
}

// Col is one table column: its header and how its numbers render.
type Col struct {
	Name string
	Kind Kind
}

// Kind says how a column renders its numbers; a text cell renders verbatim
// whatever its column's kind.
type Kind uint8

// The column kinds.
const (
	Text  Kind = iota // labels
	Acc               // accuracy fraction as a percentage: "44.25%"
	MB                // megabytes: "0.16"
	MB3               // megabytes to 3 decimals: "0.038"
	Count             // integer: "952"
	Ratio             // multiple: "4.67x"
	Dec1              // one decimal: "2.0"
	Pct0              // fraction as a whole percentage: "30%"
)

// kinds is each numeric kind's scale and format.
var kinds = [...]struct {
	mul    float64
	format string
}{Text: {1, "%v"}, Acc: {100, "%.2f%%"}, MB: {1, "%.2f"}, MB3: {1, "%.3f"}, Count: {1, "%.0f"},
	Ratio: {1, "%.2fx"}, Dec1: {1, "%.1f"}, Pct0: {100, "%.0f%%"}}

// Absences a numeric cell holds instead of a measurement, rendered the same
// in every kind. Any negative number reads "N/A", as fl.History reports a
// missing model with -1. The claim predicates skip NA and None as no
// evidence and read NotReached as a cost without bound.
var (
	NA         = -1.0        // no such metric ("N/A")
	NotReached = math.Inf(1) // the target was never hit ("not reached")
	None       = math.NaN()  // nothing to measure ("-")
)

// Cell is one table value: a number its column's Kind renders, or text.
type Cell struct {
	Num  float64
	Text string
}

// isNum reports whether the cell holds a number the predicates can compare:
// a measurement or NotReached.
func (c Cell) isNum() bool { return c.Text == "" && c.Num >= 0 }

// render formats the cell under kind k.
func (c Cell) render(k Kind) string {
	switch v := c.Num; {
	case c.Text != "":
		return c.Text
	case math.IsNaN(v):
		return "-"
	case math.IsInf(v, 1):
		return "not reached"
	case v < 0:
		return "N/A"
	default:
		return fmt.Sprintf(kinds[k].format, v*kinds[k].mul)
	}
}

// AddRow appends one table row: a string is a text cell, an []int renders
// as a set ("[0 1]"), and any number is a number.
func (r *Result) AddRow(cells ...any) {
	row := make([]Cell, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i].Text = v
		case []int:
			row[i].Text = fmt.Sprint(v)
		default:
			row[i].Num = reflect.ValueOf(v).Convert(reflect.TypeOf(0.0)).Float()
		}
	}
	r.Rows = append(r.Rows, row)
}

// AddSeries records a named per-round trace.
func (r *Result) AddSeries(name string, values []float64) {
	if r.Series == nil {
		r.Series = make(map[string][]float64)
	}
	r.Series[name] = values
}

// grid renders the table: the column names, then each row's cells.
func (r *Result) grid() [][]string {
	out := [][]string{make([]string, len(r.Cols))}
	for i, c := range r.Cols {
		out[0][i] = c.Name
	}
	for _, row := range r.Rows {
		cells := make([]string, len(row))
		for j, c := range row {
			cells[j] = c.render(r.Cols[j].Kind)
		}
		out = append(out, cells)
	}
	return out
}

// Table renders the result as an aligned text table.
func (r *Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	grid := r.grid()
	widths := make([]int, len(r.Cols))
	for _, row := range grid {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(grid[0])
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range grid[1:] {
		writeRow(row)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavored markdown table.
func (r *Result) Markdown() string {
	var b strings.Builder
	for i, row := range r.grid() {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
		if i == 0 {
			b.WriteString("|" + strings.Repeat("---|", len(r.Cols)) + "\n")
		}
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (r *Result) CSV() string {
	var b strings.Builder
	for _, row := range r.grid() {
		b.WriteString(strings.Join(row, ",") + "\n")
	}
	return b.String()
}

// SeriesCSV renders the per-round series as CSV with one column per series.
func (r *Result) SeriesCSV() string {
	if len(r.Series) == 0 {
		return ""
	}
	names := make([]string, 0, len(r.Series))
	maxLen := 0
	for name, vals := range r.Series {
		names = append(names, name)
		if len(vals) > maxLen {
			maxLen = len(vals)
		}
	}
	sort.Strings(names) // deterministic column order
	var b strings.Builder
	b.WriteString("round," + strings.Join(names, ",") + "\n")
	for row := 0; row < maxLen; row++ {
		fmt.Fprintf(&b, "%d", row)
		for _, name := range names {
			vals := r.Series[name]
			if row < len(vals) {
				fmt.Fprintf(&b, ",%.4f", vals[row])
			} else {
				b.WriteString(",")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
