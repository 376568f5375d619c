package scenario

import (
	"context"
	"strings"
	"testing"

	"congame/internal/events"
	"congame/internal/prng"
)

// minimalSpec returns a tiny valid spec for mutation in tests.
func minimalSpec() *Spec {
	return &Spec{
		Version:  Version,
		Name:     "t",
		Instance: InstanceSpec{Family: "uniform-singletons", Params: Params{"m": 4, "n": 32}},
		Dynamics: DynamicsSpec{Kind: "imitation"},
		Rounds:   50,
		Reps:     2,
		Seed:     1,
		Metrics:  []string{"mean_rounds"},
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse(strings.NewReader(`{"version":1,"name":"x","bogus":3}`))
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unknown field accepted: %v", err)
	}
}

func TestParamsAcceptBooleans(t *testing.T) {
	spec, err := Parse(strings.NewReader(`{
		"version": 1, "name": "b",
		"instance": {"family": "uniform-singletons", "params": {"m": 4, "n": 16}},
		"dynamics": {"kind": "imitation", "params": {"disableNu": true}},
		"rounds": 5, "reps": 1, "seed": 1,
		"metrics": ["mean_rounds"]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if !spec.Dynamics.Params.Bool("disableNu", false) {
		t.Error("boolean param not stored as 1")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"version", func(s *Spec) { s.Version = 3 }, "version"},
		{"version 2 ok", func(s *Spec) { s.Version = 2 }, ""},
		{"events need v2", func(s *Spec) {
			s.Version = 1
			s.Events = []events.Event{{Round: 1, Kind: events.Arrive, Count: 4}}
		}, "events require version 2"},
		{"bad event", func(s *Spec) {
			s.Events = []events.Event{{Round: 1, Kind: events.Arrive, Count: 0}}
		}, "events: invalid schedule"},
		{"events ok", func(s *Spec) {
			s.Events = []events.Event{{Round: 1, Kind: events.Arrive, Count: 4}}
		}, ""},
		{"no name", func(s *Spec) { s.Name = "" }, "name"},
		{"bad family", func(s *Spec) { s.Instance.Family = "nope" }, "unknown instance family"},
		{"bad dynamics", func(s *Spec) { s.Dynamics.Kind = "nope" }, "unknown dynamics kind"},
		{"bad stop", func(s *Spec) { s.Stop = &StopSpec{Kind: "nope"} }, "unknown stop condition"},
		{"bad metric", func(s *Spec) { s.Metrics = []string{"nope"} }, "unknown metric"},
		{"no metrics", func(s *Spec) { s.Metrics = nil }, "at least one metric"},
		{"zero reps", func(s *Spec) { s.Reps = 0 }, "reps"},
		{"zero rounds", func(s *Spec) { s.Rounds = 0 }, "rounds"},
		{"unknown instance param", func(s *Spec) { s.Instance.Params["bogus"] = 1 }, "does not accept params"},
		{"unknown dynamics param", func(s *Spec) { s.Dynamics.Params = Params{"bogus": 1} }, "does not accept params"},
		{"unknown sweep axis", func(s *Spec) { s.Sweep = []AxisSpec{{Param: "bogus", Values: []float64{1}}} }, "not a parameter"},
		{"bad axis prefix", func(s *Spec) { s.Sweep = []AxisSpec{{Param: "whatever.n", Values: []float64{1}}} }, "unknown component prefix"},
		{"stop axis without stop", func(s *Spec) { s.Sweep = []AxisSpec{{Param: "stop.eps", Values: []float64{1}}} }, "no stop condition"},
		{"duplicate axis", func(s *Spec) {
			s.Sweep = []AxisSpec{{Param: "n", Values: []float64{8}}, {Param: "n", Values: []float64{16}}}
		}, "duplicate sweep axis"},
		{"aliased duplicate axis", func(s *Spec) {
			s.Sweep = []AxisSpec{{Param: "n", Values: []float64{8}}, {Param: "instance.n", Values: []float64{16}}}
		}, "duplicate sweep axis"},
		{"misspelled false boolean param", func(s *Spec) {
			s.Dynamics.Params = Params{"disbleNu": 0} // what {"disbleNu": false} parses to
		}, "does not accept params"},
		{"empty axis", func(s *Spec) { s.Sweep = []AxisSpec{{Param: "n"}} }, "values or from/to"},
		{"fractional int param", func(s *Spec) {
			s.Instance.Params["n"] = 32.5
		}, "must be an integer"},
		{"fractional int sweep axis", func(s *Spec) {
			s.Sweep = []AxisSpec{{Param: "n", Values: []float64{16, 16.5}}}
		}, "integer parameter"},
		{"fractional int quick override", func(s *Spec) {
			s.Sweep = []AxisSpec{{Param: "n", Values: []float64{16}}}
			s.Quick = &QuickSpec{Sweep: []AxisSpec{{Param: "n", Values: []float64{8.5}}}}
		}, "integer parameter"},
		{"missing required param", func(s *Spec) {
			s.Instance.Params = Params{"m": 4} // n neither declared nor swept
		}, "requires params n"},
		{"missing required dynamics param", func(s *Spec) {
			s.Dynamics = DynamicsSpec{Kind: "combined"}
		}, "requires params exploreProb"},
		{"missing required stop param", func(s *Spec) {
			s.Stop = &StopSpec{Kind: "approx-eq", Params: Params{"delta": 0.1}}
		}, "requires params eps"},
		{"swept required stop param ok", func(s *Spec) {
			s.Stop = &StopSpec{Kind: "approx-eq", Params: Params{"delta": 0.1}}
			s.Sweep = []AxisSpec{{Param: "stop.eps", Values: []float64{0.1, 0.2}}}
		}, ""},
		{"duplicate seed coord", func(s *Spec) {
			s.Sweep = []AxisSpec{{Param: "n", Values: []float64{8}}, {Param: "m", Values: []float64{2}}}
			s.SeedCoords = []string{"n", "n"}
		}, "duplicate seed_coords"},
		{"bad seed coord", func(s *Spec) {
			s.Sweep = []AxisSpec{{Param: "n", Values: []float64{8}}}
			s.SeedCoords = []string{"m"}
		}, "seed_coords"},
		{"partial seed coords", func(s *Spec) {
			s.Sweep = []AxisSpec{{Param: "n", Values: []float64{8}}, {Param: "m", Values: []float64{2}}}
			s.SeedCoords = []string{"n"}
		}, "list all or none"},
		{"bad trace rep", func(s *Spec) { s.Trace = &TraceSpec{Rep: 5} }, "trace.rep"},
		{"bad quick axis", func(s *Spec) {
			s.Quick = &QuickSpec{Sweep: []AxisSpec{{Param: "bogus", Values: []float64{1}}}}
		}, "quick sweep override"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := minimalSpec()
			tc.mutate(s)
			err := s.Validate()
			if tc.want == "" { // a mutation that must stay valid
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("validated")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if err := minimalSpec().Validate(); err != nil {
		t.Errorf("minimal spec invalid: %v", err)
	}
}

func TestAxisRangeExpansion(t *testing.T) {
	from, to, step := 1.0, 3.0, 1.0
	vals, err := AxisSpec{Param: "n", From: &from, To: &to, Step: &step}.expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || vals[0] != 1 || vals[2] != 3 {
		t.Errorf("range expansion = %v", vals)
	}
	// Fractional step including the endpoint despite float rounding.
	from2, to2, step2 := 0.1, 0.4, 0.1
	vals, err = AxisSpec{Param: "n", From: &from2, To: &to2, Step: &step2}.expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 4 {
		t.Errorf("fractional range expansion = %v", vals)
	}
}

func TestGridOrderAndSeedCoords(t *testing.T) {
	s := minimalSpec()
	s.Instance.Params = Params{"m": 4}
	s.Sweep = []AxisSpec{
		{Param: "m", Values: []float64{2, 3}},
		{Param: "n", Values: []float64{8, 16}},
	}
	s.SeedCoords = []string{"n", "m"}
	cells, err := Grid(s, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("grid has %d cells, want 4", len(cells))
	}
	// First axis slowest: (2,8), (2,16), (3,8), (3,16).
	wantVals := [][]float64{{2, 8}, {2, 16}, {3, 8}, {3, 16}}
	for i, c := range cells {
		if c.Values[0] != wantVals[i][0] || c.Values[1] != wantVals[i][1] {
			t.Errorf("cell %d values = %v, want %v", i, c.Values, wantVals[i])
		}
		// seed_coords reorders to (n, m).
		if c.Coords[0] != uint64(wantVals[i][1]) || c.Coords[1] != uint64(wantVals[i][0]) {
			t.Errorf("cell %d coords = %v", i, c.Coords)
		}
		if c.Instance["m"] != wantVals[i][0] || c.Instance["n"] != wantVals[i][1] {
			t.Errorf("cell %d merged params = %v", i, c.Instance)
		}
	}
}

// TestSeedContract pins the documented derivation: instance rng words are
// (seed, keys..., rep, coords...) — exactly the prng.Stream shape the
// hand-rolled experiments use.
func TestSeedContract(t *testing.T) {
	s := minimalSpec()
	s.Seed = 9
	s.Instance.Keys = []uint64{2}
	s.Dynamics.Keys = []uint64{21}
	s.Sweep = []AxisSpec{
		{Param: "m", Values: []float64{5}},
		{Param: "n", Values: []float64{64}},
	}
	s.SeedCoords = []string{"n", "m"}
	cells, err := Grid(s, false)
	if err != nil {
		t.Fatal(err)
	}
	gotInst := prng.Mix(s.instanceSeedWords(cells[0], 3)...)
	wantInst := prng.Mix(9, 2, 3, 64, 5)
	if gotInst != wantInst {
		t.Errorf("instance seed = %#x, want %#x", gotInst, wantInst)
	}
	gotDyn := prng.Mix(s.dynamicsSeedWords(cells[0], 3)...)
	wantDyn := prng.Mix(9, 21, 3, 64, 5)
	if gotDyn != wantDyn {
		t.Errorf("dynamics seed = %#x, want %#x", gotDyn, wantDyn)
	}
}

// TestCoordWord pins the seed-word conversion: exact non-negative
// integers keep the experiments' uint64(n) convention while fractional
// and negative values hash their bit pattern instead of truncating into
// collisions.
func TestCoordWord(t *testing.T) {
	if got := coordWord(64); got != 64 {
		t.Errorf("coordWord(64) = %d", got)
	}
	if got := coordWord(3); got != 3 {
		t.Errorf("coordWord(3) = %d", got)
	}
	if coordWord(0.25) == coordWord(0.75) {
		t.Error("fractional sweep values collide")
	}
	if coordWord(0.25) == 0 || coordWord(-2) == coordWord(2) {
		t.Error("non-integral/negative values truncated")
	}
}

// TestFalseBooleanParamKept pins that a JSON false is stored as an
// explicit 0 — the key must stay visible to unknown-param validation.
func TestFalseBooleanParamKept(t *testing.T) {
	var p Params
	if err := p.UnmarshalJSON([]byte(`{"disableNu": false}`)); err != nil {
		t.Fatal(err)
	}
	if !p.Has("disableNu") {
		t.Fatal("false boolean dropped from params")
	}
	if p.Bool("disableNu", true) {
		t.Error("false boolean reads as true")
	}
}

func TestQuickOverrides(t *testing.T) {
	s := minimalSpec()
	s.Sweep = []AxisSpec{{Param: "n", Values: []float64{64, 256, 1024}}}
	s.Quick = &QuickSpec{Reps: 1, Rounds: 10, Sweep: []AxisSpec{{Param: "n", Values: []float64{8}}}}
	eff := s.Effective(true)
	if eff.Reps != 1 || eff.Rounds != 10 {
		t.Errorf("quick reps/rounds = %d/%d", eff.Reps, eff.Rounds)
	}
	if len(eff.Sweep[0].Values) != 1 || eff.Sweep[0].Values[0] != 8 {
		t.Errorf("quick sweep = %v", eff.Sweep[0].Values)
	}
	// The original spec is untouched.
	if s.Reps != 2 || len(s.Sweep[0].Values) != 3 {
		t.Error("Effective mutated the receiver")
	}
	full := s.Effective(false)
	if full.Reps != 2 || len(full.Sweep[0].Values) != 3 {
		t.Error("non-quick Effective changed the schedule")
	}
}

func TestRunSmokeAndDeterminism(t *testing.T) {
	s := minimalSpec()
	s.Stop = &StopSpec{Kind: "quiet", Params: Params{"rounds": 3}}
	s.Sweep = []AxisSpec{{Param: "n", Values: []float64{16, 32}}}
	s.Metrics = []string{"mean_rounds", "converged", "mean_final_potential"}
	a, err := Run(context.Background(), s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cells) != 2 || len(a.Table.Rows) != 2 {
		t.Fatalf("cells/rows = %d/%d, want 2/2", len(a.Cells), len(a.Table.Rows))
	}
	if got := len(a.Table.Headers); got != 4 { // axis + 3 metrics
		t.Errorf("headers = %v", a.Table.Headers)
	}
	b, err := Run(context.Background(), s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Table.Markdown() != b.Table.Markdown() {
		t.Error("same spec, same seed, different tables")
	}
}

// TestRunInvariantAcrossParallelism is the scenario layer's instance of
// the suite-wide determinism contract: the two parallelism knobs must not
// change a single output byte.
func TestRunInvariantAcrossParallelism(t *testing.T) {
	s := minimalSpec()
	s.Reps = 5
	s.Stop = &StopSpec{Kind: "imitation-stable"}
	s.Sweep = []AxisSpec{{Param: "n", Values: []float64{16, 64}}}
	s.Metrics = []string{"mean_rounds", "ci95_rounds", "converged", "mean_final_avg_latency"}
	ref, err := Run(context.Background(), s, Options{Par: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Options{{Par: 2, Workers: 1}, {Par: 3, Workers: 2}, {Par: 1, Workers: 4}, {}} {
		got, err := Run(context.Background(), s, opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		if got.Table.Markdown() != ref.Table.Markdown() {
			t.Errorf("table differs at par=%d workers=%d", opt.Par, opt.Workers)
		}
	}
}

func TestRunRecordsTraces(t *testing.T) {
	s := minimalSpec()
	s.Reps = 3
	s.Rounds = 40
	s.Trace = &TraceSpec{Rep: 1, Capacity: 16}
	res, err := Run(context.Background(), s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cell := res.Cells[0]
	if cell.Trace == nil {
		t.Fatal("no trace recorded")
	}
	want := cell.Results[1].Rounds
	if want > 16 {
		want = 16
	}
	if cell.Trace.Len() != want {
		t.Errorf("trace retained %d rounds, want %d", cell.Trace.Len(), want)
	}
	rounds := cell.Trace.Rounds()
	// Ring keeps the most recent rounds in chronological order.
	for i := 1; i < len(rounds); i++ {
		if rounds[i].Round != rounds[i-1].Round+1 {
			t.Fatalf("trace rounds not consecutive: %d after %d", rounds[i].Round, rounds[i-1].Round)
		}
	}
	if len(rounds) > 0 && rounds[len(rounds)-1].Round != cell.Results[1].Rounds-1 {
		t.Errorf("trace ends at round %d, want %d", rounds[len(rounds)-1].Round, cell.Results[1].Rounds-1)
	}
}

// TestSequentialDynamicsRun exercises a sequential registry kind end to
// end (policy rng derivation, Err propagation path, activation counting).
func TestSequentialDynamicsRun(t *testing.T) {
	s := minimalSpec()
	s.Dynamics = DynamicsSpec{Kind: "best-response"}
	s.Rounds = 500
	s.Stop = &StopSpec{Kind: "quiet", Params: Params{"rounds": 1}}
	s.Metrics = []string{"mean_rounds", "converged", "mean_moves"}
	res, err := Run(context.Background(), s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells[0].Agg.Converged == 0 {
		t.Error("best response never went quiet on a 32-player singleton game")
	}
}

func TestRunErrorNamesCell(t *testing.T) {
	s := minimalSpec()
	s.Instance.Params = Params{"m": 4}
	s.Sweep = []AxisSpec{{Param: "n", Values: []float64{16, -1}}}
	_, err := Run(context.Background(), s, Options{})
	if err == nil {
		t.Fatal("negative n accepted")
	}
	if !strings.Contains(err.Error(), "cell 1") || !strings.Contains(err.Error(), "n=-1") {
		t.Errorf("error %q does not locate the failing cell", err)
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		64:     "64",
		16384:  "16384",
		1:      "1",
		2.5:    "2.5",
		0.1:    "0.1",
		-3:     "-3",
		1.2345: "1.234",
	}
	for in, want := range cases {
		if got := formatValue(in); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", in, got, want)
		}
	}
}

// TestReplicationMatchesRun pins Replication to Run: every replication it
// builds, run for the spec's round budget, reproduces Run's result for
// that replication. It covers an event-scheduled spec (churn-recovery's
// first cell) and a sequential kind.
func TestReplicationMatchesRun(t *testing.T) {
	churn, err := Load("../../examples/scenarios/churn-recovery.json")
	if err != nil {
		t.Fatal(err)
	}
	seq := minimalSpec()
	seq.Dynamics = DynamicsSpec{Kind: "sequential-imitation"}
	seq.Stop = &StopSpec{Kind: "quiet", Params: Params{"rounds": 3}}
	seq.Rounds = 400
	for _, tc := range []struct {
		name string
		spec *Spec
		opts Options
	}{
		{"events", churn, Options{Quick: true}},
		{"sequential", seq, Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(context.Background(), tc.spec, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			cell := res.Cells[0]
			for rep, want := range cell.Results {
				b, stop, err := Replication(tc.spec, cell.Cell, rep, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				got := b.Dyn.Run(res.Spec.Rounds, stop)
				if got != want {
					t.Errorf("rep %d: Replication ran %+v, Run recorded %+v", rep, got, want)
				}
			}
		})
	}
}
