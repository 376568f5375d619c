package scenario_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"congame/internal/scenario"
)

// matchGolden runs the committed example spec <name>.json at quick and at
// full size and requires its CSV to equal the committed golden byte for
// byte: golden/<name>.csv and golden/full/<name>.csv, the files
// `make sweep-golden` writes. Any drift in the seed-derivation contract,
// the grid order, the aggregation fold, the cell formatting or the
// dynamics themselves fails `go test`, not only the CI sweep job.
func matchGolden(t *testing.T, name string) {
	t.Helper()
	spec, err := scenario.Load(filepath.Join("../../examples/scenarios", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		quick  bool
		golden string
	}{
		{true, filepath.Join("../../examples/scenarios/golden", name+".csv")},
		{false, filepath.Join("../../examples/scenarios/golden/full", name+".csv")},
	} {
		want, err := os.ReadFile(mode.golden)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		res, err := scenario.Run(context.Background(), spec, scenario.Options{Quick: mode.quick})
		if err != nil {
			t.Fatalf("%s (quick %v): %v", name, mode.quick, err)
		}
		if got := res.Table.CSV(); got != string(want) {
			t.Errorf("%s (quick %v) differs from %s:\ngot:\n%s\nwant:\n%s", name, mode.quick, mode.golden, got, want)
		}
	}
}

// TestSweepMatchesExperimentE2 pins the singleton-family example: the
// goldens of e2-monomial-singletons.json are the reference tables of
// experiment E2 (degree, n, mean rounds, CI95, converged), quick and full.
func TestSweepMatchesExperimentE2(t *testing.T) {
	matchGolden(t, "e2-monomial-singletons")
}

// TestSweepMatchesExperimentE3Network pins the network-family example: the
// goldens of e3-poly-network.json are the reference tables of E3's
// layered-DAG rows (n, mean rounds, CI95, rounds/ln n), quick and full.
func TestSweepMatchesExperimentE3Network(t *testing.T) {
	matchGolden(t, "e3-poly-network")
}

// TestExampleSpecsMatchGolden holds every committed example spec to its
// quick and full-size goldens.
func TestExampleSpecsMatchGolden(t *testing.T) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example specs found (err %v)", err)
	}
	for _, path := range paths {
		matchGolden(t, strings.TrimSuffix(filepath.Base(path), ".json"))
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
