package scenario_test

import (
	"context"
	"path/filepath"
	"testing"

	"congame/internal/scenario"
	"congame/internal/sim"
)

// These tests pin the acceptance criterion of the scenario subsystem: the
// committed example spec files reproduce the corresponding hand-rolled
// cmd/experiments tables byte-for-byte. They run the experiment through
// internal/sim AND the spec through internal/scenario with the same seed
// and compare the formatted cells — any drift in the seed-derivation
// contract, the grid order, the aggregation fold, or the cell formatting
// fails the test.

// runSpec loads and runs a committed example spec in quick mode.
func runSpec(t *testing.T, path string) *scenario.Result {
	t.Helper()
	spec, err := scenario.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(context.Background(), spec, scenario.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runExperiment runs a sim registry experiment with the given seed in
// quick mode.
func runExperiment(t *testing.T, id string, seed uint64) sim.Table {
	t.Helper()
	e, ok := sim.ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	tbl, err := e.Run(sim.Config{Seed: seed, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// compareRows asserts the sweep row cells equal the experiment row cells
// (expCols selects which experiment columns correspond to the sweep
// columns, in order).
func compareRows(t *testing.T, what string, sweepRow, expRow []string, expCols []int) {
	t.Helper()
	if len(sweepRow) != len(expCols) {
		t.Fatalf("%s: sweep row has %d cells, comparing %d experiment columns", what, len(sweepRow), len(expCols))
	}
	for i, col := range expCols {
		if sweepRow[i] != expRow[col] {
			t.Errorf("%s: column %d = %q, experiment has %q", what, i, sweepRow[i], expRow[col])
		}
	}
}

// TestSweepMatchesExperimentE2 pins the singleton-family example:
// e2-monomial-singletons.json must reproduce every cell of the E2 table
// (degree, n, mean rounds, CI95, converged) byte-for-byte.
func TestSweepMatchesExperimentE2(t *testing.T) {
	res := runSpec(t, "../../examples/scenarios/e2-monomial-singletons.json")
	exp := runExperiment(t, "E2", res.Spec.Seed)
	if len(res.Table.Rows) != len(exp.Rows) {
		t.Fatalf("sweep has %d rows, E2 table has %d", len(res.Table.Rows), len(exp.Rows))
	}
	for i := range res.Table.Rows {
		compareRows(t, res.Table.Rows[i][0]+"/"+res.Table.Rows[i][1], res.Table.Rows[i], exp.Rows[i], []int{0, 1, 2, 3, 4})
	}
}

// TestSweepMatchesExperimentE3Network pins the network-family example:
// e3-poly-network.json must reproduce the layered-DAG rows of the E3
// table (n, mean rounds, CI95, rounds/ln n) byte-for-byte.
func TestSweepMatchesExperimentE3Network(t *testing.T) {
	res := runSpec(t, "../../examples/scenarios/e3-poly-network.json")
	exp := runExperiment(t, "E3", res.Spec.Seed)
	if len(exp.Rows) < len(res.Table.Rows) {
		t.Fatalf("E3 table has %d rows, sweep has %d", len(exp.Rows), len(res.Table.Rows))
	}
	// The network rows sit below the singleton block; identify them by
	// their instance label.
	var netRows [][]string
	for _, row := range exp.Rows {
		if row[0] == "layered DAG 4×3, x²" {
			netRows = append(netRows, row)
		}
	}
	if len(netRows) != len(res.Table.Rows) {
		t.Fatalf("E3 has %d network rows, sweep has %d", len(netRows), len(res.Table.Rows))
	}
	for i := range res.Table.Rows {
		compareRows(t, "n="+res.Table.Rows[i][0], res.Table.Rows[i], netRows[i], []int{1, 2, 3, 4})
	}
}

// TestExampleSpecsValidate loads every committed example spec and
// expands both its full- and quick-mode grids, without running them.
func TestExampleSpecsValidate(t *testing.T) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example specs found (err %v)", err)
	}
	for _, path := range paths {
		spec, err := scenario.Load(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if _, err := scenario.Grid(spec, false); err != nil {
			t.Errorf("%s full grid: %v", path, err)
		}
		if _, err := scenario.Grid(spec, true); err != nil {
			t.Errorf("%s quick grid: %v", path, err)
		}
	}
}
