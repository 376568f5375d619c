package sim

import (
	"encoding/json"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tbl := Table{
		ID:      "T0",
		Title:   "demo",
		Claim:   "claim text",
		Headers: []string{"a", "b"},
	}
	tbl.AddRow(1, 2.5)
	tbl.AddRow("x,y", 3)
	tbl.AddNote("note %d", 7)

	md := tbl.Markdown()
	for _, want := range []string{"### T0 — demo", "| a | b |", "| 1 | 2.5 |", "> note 7", "*Claim:* claim text"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
	txt := tbl.Text()
	if !strings.Contains(txt, "T0 — demo") || !strings.Contains(txt, "note: note 7") {
		t.Errorf("text rendering:\n%s", txt)
	}
	csv := tbl.CSV()
	if !strings.Contains(csv, "a,b\n") {
		t.Errorf("csv header missing:\n%s", csv)
	}
	if !strings.Contains(csv, "\"x,y\"") {
		t.Errorf("csv quoting missing:\n%s", csv)
	}
}

func TestTableJSON(t *testing.T) {
	tbl := Table{
		ID:      "T1",
		Title:   "json demo",
		Headers: []string{"a", "b"},
	}
	tbl.AddRow(1, 2.5)
	tbl.AddNote("n1")
	doc, err := tbl.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		ID      string     `json:"id"`
		Title   string     `json:"title"`
		Claim   string     `json:"claim"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
		Notes   []string   `json:"notes"`
	}
	if err := json.Unmarshal(doc, &decoded); err != nil {
		t.Fatalf("JSON output does not round-trip: %v\n%s", err, doc)
	}
	if decoded.ID != "T1" || len(decoded.Headers) != 2 {
		t.Errorf("decoded = %+v", decoded)
	}
	// Cells must keep the exact strings the text renderers print.
	if decoded.Rows[0][1] != "2.5" {
		t.Errorf("row cell = %q, want \"2.5\"", decoded.Rows[0][1])
	}
	if len(decoded.Notes) != 1 || decoded.Notes[0] != "n1" {
		t.Errorf("notes = %v", decoded.Notes)
	}
	// An empty table still encodes rows as [] (not null) for consumers.
	empty := Table{ID: "T2", Headers: []string{"x"}}
	doc, err = empty.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), "\"rows\": []") {
		t.Errorf("empty table rows not []:\n%s", doc)
	}
}

// TestRegistryComplete: E1 and E3–E16 in order. E2 is a scenario spec
// only (examples/scenarios/e2-monomial-singletons.json).
func TestRegistryComplete(t *testing.T) {
	exps := Experiments()
	if len(exps) != 15 {
		t.Fatalf("registry has %d experiments, want 15", len(exps))
	}
	for i, e := range exps {
		want := "E1"
		if i > 0 {
			want = "E" + strconv.Itoa(i+2)
		}
		if e.ID != want {
			t.Errorf("experiment %d ID = %q, want %q", i, e.ID, want)
		}
		if e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if _, ok := ByID("E3"); !ok {
		t.Error("ByID(E3) not found")
	}
	for _, id := range []string{"E2", "E99"} {
		if _, ok := ByID(id); ok {
			t.Errorf("ByID(%s) found", id)
		}
	}
}

// TestAllExperimentsQuick is the integration test of the whole stack: every
// experiment must run in Quick mode, produce a non-empty table, and satisfy
// its basic shape assertion.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep skipped in -short mode")
	}
	cfg := Config{Seed: 7, Quick: true}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tbl, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			if len(tbl.Headers) == 0 {
				t.Fatalf("%s has no headers", e.ID)
			}
			for i, row := range tbl.Rows {
				if len(row) != len(tbl.Headers) {
					t.Errorf("%s row %d has %d cells, want %d", e.ID, i, len(row), len(tbl.Headers))
				}
			}
		})
	}
}

// TestTablesInvariantAcrossParallelism is the determinism contract of the
// two parallelism axes: every experiment table must be byte-identical for
// runner parallelism 1/2/3/GOMAXPROCS crossed with engine workers
// 1/GOMAXPROCS. E1 gets the full cross (it exercises Step-level potential
// tracking); every other experiment is checked at the extreme corner
// (Par = GOMAXPROCS·3, Workers = GOMAXPROCS) against the sequential
// reference.
func TestTablesInvariantAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("parallelism sweep skipped in -short mode")
	}
	gmp := runtime.GOMAXPROCS(0)

	e1, ok := ByID("E1")
	if !ok {
		t.Fatal("E1 missing")
	}
	ref, err := e1.Run(Config{Seed: 5, Quick: true, Workers: 1, Par: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 3, gmp} {
		for _, workers := range []int{1, gmp} {
			got, err := e1.Run(Config{Seed: 5, Quick: true, Workers: workers, Par: par})
			if err != nil {
				t.Fatalf("par %d workers %d: %v", par, workers, err)
			}
			if got.Markdown() != ref.Markdown() {
				t.Errorf("E1 table differs at par %d workers %d", par, workers)
			}
		}
	}

	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			seq, err := e.Run(Config{Seed: 5, Quick: true, Workers: 1, Par: 1})
			if err != nil {
				t.Fatal(err)
			}
			par, err := e.Run(Config{Seed: 5, Quick: true, Workers: gmp, Par: gmp*3 + 1})
			if err != nil {
				t.Fatal(err)
			}
			if seq.Markdown() != par.Markdown() {
				t.Errorf("%s table differs between (par 1, workers 1) and (par %d, workers %d)", e.ID, gmp*3+1, gmp)
			}
		})
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism sweep skipped in -short mode")
	}
	// E1 is the cheapest full-stack experiment; identical seeds must yield
	// identical tables.
	e, ok := ByID("E1")
	if !ok {
		t.Fatal("E1 missing")
	}
	cfg := Config{Seed: 11, Quick: true}
	a, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Markdown() != b.Markdown() {
		t.Error("E1 not deterministic for a fixed seed")
	}
}
