// Package sim is the experiment harness: it defines the registry of
// experiments E1 and E3–E16 (one per theorem-level claim of the paper,
// see EXPERIMENTS.md; E2 and E3's layered-DAG rows are scenario specs
// under examples/scenarios), replication helpers, and
// plain-text/markdown/CSV table rendering. The same registry backs cmd/experiments and the
// root-level benchmark suite. Tables are deterministic in Config.Seed
// and invariant under Config.Workers.
package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrInvalid reports an invalid harness configuration.
var ErrInvalid = errors.New("sim: invalid")

// Table is a rendered experiment result.
type Table struct {
	// ID is the experiment identifier (e.g. "E3").
	ID string
	// Title summarizes the experiment.
	Title string
	// Claim cites the paper statement under test.
	Claim string
	// Headers are the column names.
	Headers []string
	// Rows hold pre-formatted cells.
	Rows [][]string
	// Notes carries fit results and shape verdicts appended below the
	// table.
	Notes []string
}

// AddRow appends a row, formatting each cell with %v (floats via %.4g).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = strconv.FormatFloat(v, 'g', 4, 64)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a formatted note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Markdown renders the table as GitHub-flavoured markdown.
func (t Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "*Claim:* %s\n\n", t.Claim)
	}
	b.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		b.WriteString("\n> " + n + "\n")
	}
	return b.String()
}

// Text renders the table as aligned plain text.
func (t Table) Text() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		b.WriteString("note: " + n + "\n")
	}
	return b.String()
}

// tableJSON is the machine-readable table encoding shared by
// cmd/experiments -json and cmd/sweep's JSON writer.
type tableJSON struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Claim   string     `json:"claim,omitempty"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// JSON renders the table as an indented JSON document with id, title,
// claim, headers, rows, and notes fields. Cells keep exactly the strings
// the other renderers print, so JSON output is as reproducible as the
// text tables.
func (t Table) JSON() ([]byte, error) {
	doc := tableJSON{
		ID:      t.ID,
		Title:   t.Title,
		Claim:   t.Claim,
		Headers: t.Headers,
		Rows:    t.Rows,
		Notes:   t.Notes,
	}
	if doc.Rows == nil {
		doc.Rows = [][]string{}
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("sim: encode table %s: %w", t.ID, err)
	}
	return append(out, '\n'), nil
}

// CSV renders the table as comma-separated values (cells containing commas
// are quoted).
func (t Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				b.WriteString(strconv.Quote(cell))
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
