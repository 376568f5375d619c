package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"congame/internal/scenario"
)

// tiny is a configuration small enough for the self-test: the same code
// paths as the benchmark at a few milliseconds per op.
func tiny(t *testing.T, workload string, trace bool) config {
	t.Helper()
	return config{
		Workload: workload, Seed: 7, Seconds: 0.01, Trace: trace,
		Root: "..", Work: t.TempDir(),
		Players: 4096, Links: 16, MinOps: 3, PassRounds: 6,
		SeedsPerSpec: 2, SetupReps: 2, Quick: true,
	}
}

// benchmarkJSON is the part of BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadOrder, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadOrder)
	}
	for _, c := range []struct {
		list string
		json []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}
		code []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", c.list, len(c.json), len(c.code))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", c.list, i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

// runTiny runs one workload at tiny size and returns its report and the
// parsed result line.
func runTiny(t *testing.T, cfg config) (string, map[string]metric) {
	t.Helper()
	res, err := workloads[cfg.Workload](cfg)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", cfg.Workload, cfg.Trace, err)
	}
	var out bytes.Buffer
	if err := res.print(&out, cfg); err != nil {
		t.Fatalf("%s trace=%v: %v", cfg.Workload, cfg.Trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&last); err != nil {
		t.Fatalf("%s trace=%v: last line %q: %v", cfg.Workload, cfg.Trace, lines[len(lines)-1], err)
	}
	if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", cfg.Workload, cfg.Trace,
			last.Correct, last.Attempted, last.Failed, out.String())
	}
	return out.String(), last.Metrics
}

// TestWorkloadsPrintEveryMetric runs every workload untraced and traced and
// checks that each prints exactly its schema's metrics, each with its unit
// in both the result line and the report, and that the exact counts repeat
// for one seed.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	exact := map[string][]string{
		"rush-4m":    {"core.move_frac", "events.firings"},
		"sweep-mix":  {"scenario.reps", "core.move_frac"},
		"serve-jobs": {"scenario.reps", "checkpoint.manifest_bytes", "obs.journal_rows"},
	}
	for _, w := range workloadOrder {
		t.Run(w, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				want := endToEnd
				if trace {
					want = perLayer
				}
				report, got := runTiny(t, tiny(t, w, trace))
				if len(got) != len(want) {
					t.Errorf("trace=%v: %d metrics, want %d", trace, len(got), len(want))
				}
				lines := map[string][]string{}
				for _, line := range strings.Split(report, "\n") {
					if f := strings.Fields(strings.TrimPrefix(line, "# ")); len(f) >= 3 {
						lines[f[0]] = f
					}
				}
				for _, m := range want {
					if got[m.name].Unit != m.unit {
						t.Errorf("trace=%v: metric %s unit %q, want %q", trace, m.name, got[m.name].Unit, m.unit)
					}
					if f := lines[m.name]; f == nil || f[2] != m.unit {
						t.Errorf("trace=%v: report line for %s is %q, want its value and unit %s", trace, m.name, f, m.unit)
					}
				}
				if !trace {
					continue
				}
				_, again := runTiny(t, tiny(t, w, true))
				for _, name := range exact[w] {
					if got[name].Value != again[name].Value || got[name].Value == 0 {
						t.Errorf("exact count %s: %v then %v for one seed", name, got[name].Value, again[name].Value)
					}
				}
			}
		})
	}
}

func TestRushChecksRejectWrongReferences(t *testing.T) {
	cfg := tiny(t, "rush-4m", false)
	build := func(rounds int) *rushRun {
		r, err := buildRush(cfg, rushWorkers, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rounds; i++ {
			if err := r.step(); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	a := build(8)
	if err := a.check(); err != nil {
		t.Fatal(err)
	}
	phi := a.dyn.State().Potential()
	if err := checkPotential(a.dyn.Potential(), phi*(1+1e-6)); err == nil {
		t.Error("a potential 1e-6 off the reference passed")
	}
	var digests []string
	for _, r := range []*rushRun{a, build(8), build(9)} {
		d, err := r.finish()
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, d)
	}
	if err := checkDigests([]string{"a", "b"}, digests[:2]); err != nil {
		t.Errorf("identical trajectories: %v", err)
	}
	if err := checkDigests([]string{"a", "c"}, []string{digests[0], digests[2]}); err == nil {
		t.Error("trajectories of 8 and 9 rounds passed the digest check")
	}
}

// corrupt returns the reference with its last digit changed.
func corrupt(ref string) string {
	i := strings.LastIndexAny(ref, "0123456789")
	d := byte('0')
	if ref[i] == '0' {
		d = '1'
	}
	return ref[:i] + string(d) + ref[i+1:]
}

func TestSweepAndServeChecksRejectWrongReferences(t *testing.T) {
	cfg := tiny(t, "serve-jobs", false)
	ctx := context.Background()
	pairs, err := loadPairs(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := pairs[len(specNames)-1] // churn-recovery: a derived seed
	if err := runReferences(ctx, cfg, []*pair{p}); err != nil {
		t.Fatal(err)
	}
	out, err := scenario.Run(ctx, p.spec, scenario.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	csv := out.Table.CSV()
	if err := checkCSV(p, csv); err != nil {
		t.Fatalf("sweep op against its own reference: %v", err)
	}

	d, err := startDaemon(filepath.Join(cfg.Work, "state"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d.close(); err != nil {
			t.Error(err)
		}
	}()
	if _, err := d.job(ctx, p, true, nil, 0); err != nil {
		t.Fatalf("serve op against its own reference: %v", err)
	}
	bad := *p
	bad.ref = corrupt(p.ref)
	if err := checkCSV(&bad, csv); err == nil {
		t.Error("sweep: a wrong reference passed")
	}
	if _, err := d.job(ctx, &bad, true, nil, 1); err == nil {
		t.Error("serve: a wrong reference passed")
	}
	bad.raw = []byte(`{"version": 99}`)
	if _, err := d.job(ctx, &bad, true, nil, 2); err == nil || !strings.Contains(err.Error(), "status 400") {
		t.Errorf("serve: a rejected submission gave %v, want a status 400 failure", err)
	}
}

func TestClosedLoopCountsFailures(t *testing.T) {
	l := closedLoop(2, 0, 10, 10, func(i int) error {
		if i%3 == 0 {
			return errors.New("odd one out")
		}
		return nil
	})
	if len(l.lat) != 10 || l.failed != 4 || len(l.errs) != 4 {
		t.Errorf("ops=%d failed=%d errs=%d, want 10, 4, 4", len(l.lat), l.failed, len(l.errs))
	}
}
