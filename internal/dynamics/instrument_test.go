package dynamics

// Differential tests for the observability wiring: Instrument only READS
// a run (completed-round statistics and phase timings), so an
// instrumented trajectory must be bit-identical to a bare one on every
// backend and worker count, and the instrumented engine round must keep
// the steady-state zero-allocation contract.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"runtime"
	"slices"
	"testing"

	"congame/internal/core"
	"congame/internal/events"
	"congame/internal/latency"
	"congame/internal/obs"
	"congame/internal/prng"
	"congame/internal/weighted"
)

// trajectory steps d for n rounds and returns the stats sequence.
func trajectory(d Dynamics, n int) []RoundStats {
	out := make([]RoundStats, n)
	for i := range out {
		out[i] = d.Step()
	}
	return out
}

// newWeightedDyn builds a deterministic weighted adapter; every call
// constructs an identical instance.
func newWeightedDyn(t *testing.T, workers int) *Weighted {
	t.Helper()
	rng := prng.New(5)
	fns := make([]latency.Function, 12)
	for e := range fns {
		f, err := latency.NewLinear(1 + float64(e)/3)
		if err != nil {
			t.Fatal(err)
		}
		fns[e] = f
	}
	weights := make([]float64, 600)
	for i := range weights {
		weights[i] = 1 + rng.Float64()*5
	}
	g, err := weighted.NewGame(fns, weights)
	if err != nil {
		t.Fatal(err)
	}
	st, err := weighted.NewRandomState(g, rng)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := weighted.NewProtocol(g, 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := weighted.NewEngine(st, proto, 3, weighted.WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	return FromWeighted(e)
}

// TestInstrumentPreservesTrajectory is the determinism contract of the
// observability layer (referenced from Instrument's doc comment): with a
// registry AND a journal attached, every backend produces the same
// RoundStats sequence as a bare run, at every worker count.
func TestInstrumentPreservesTrajectory(t *testing.T) {
	const rounds = 40
	workerCounts := []int{1, 2}
	if gmp := runtime.GOMAXPROCS(0); gmp > 2 {
		workerCounts = append(workerCounts, gmp)
	}

	backends := []struct {
		name    string
		label   string
		workers []int
		mk      func(t *testing.T, workers int) Dynamics
	}{
		{"engine", "core", workerCounts, func(t *testing.T, w int) Dynamics {
			inst := newTestInstance(t, 17)
			im, err := core.NewImitation(inst.Game, core.ImitationConfig{})
			if err != nil {
				t.Fatal(err)
			}
			e, err := core.NewEngine(inst.State, im, core.WithSeed(17), core.WithWorkers(w))
			if err != nil {
				t.Fatal(err)
			}
			return FromEngine(e)
		}},
		{"weighted", "weighted", workerCounts, func(t *testing.T, w int) Dynamics {
			return newWeightedDyn(t, w)
		}},
		// The fluid backend has no worker axis; one variant suffices.
		{"fluid", "fluid", []int{1}, func(t *testing.T, _ int) Dynamics {
			return FromFluid(fluidTestSim(t, 4), 0)
		}},
	}

	for _, be := range backends {
		for _, w := range be.workers {
			t.Run(fmt.Sprintf("%s/w%d", be.name, w), func(t *testing.T) {
				bare := trajectory(be.mk(t, w), rounds)

				reg := obs.NewRegistry()
				var buf bytes.Buffer
				j := obs.NewJournal(&buf)
				d := be.mk(t, w)
				Instrument(d, reg, j, 0, 0)
				got := trajectory(d, rounds)

				for i := range bare {
					if got[i] != bare[i] {
						t.Fatalf("round %d diverged: instrumented %+v, bare %+v", i, got[i], bare[i])
					}
				}
				if err := j.Flush(); err != nil {
					t.Fatal(err)
				}
				if buf.Len() == 0 {
					t.Error("journal stayed empty over an instrumented run")
				}
				// The registry accumulated the run: the backend's round
				// counter (idempotent re-registration hands back the same
				// series) must have counted every step exactly once.
				rm := obs.NewPhaseMetrics(reg, obs.Phases{Backend: be.label})
				if got := rm.Rounds.Value(); got != rounds {
					t.Errorf("registry counted %d rounds, want %d", got, rounds)
				}
			})
		}
	}
}

// phaseTimedCases builds every PhaseTimed backend at the worker counts the
// instrumented-round tests cover, with the backend label and the phase
// keys its journal rows carry, in order.
var phaseTimedCases = []struct {
	name    string
	backend string
	keys    []string
	mk      func(t *testing.T) Dynamics
}{
	{"core/w1", "core", []string{"pre_round_s", "sync_s", "decide_s", "apply_s", "step_s"}, func(t *testing.T) Dynamics {
		inst := newTestInstance(t, 23)
		im, err := core.NewImitation(inst.Game, core.ImitationConfig{})
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.NewEngine(inst.State, im, core.WithSeed(23), core.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		return FromEngine(e)
	}},
	{"weighted/w1", "weighted", []string{"sync_s", "decide_s", "apply_s", "step_s"}, func(t *testing.T) Dynamics {
		return newWeightedDyn(t, 1)
	}},
	{"weighted/w2", "weighted", []string{"sync_s", "decide_s", "apply_s", "step_s"}, func(t *testing.T) Dynamics {
		return newWeightedDyn(t, 2)
	}},
	{"fluid", "fluid", []string{"integrate_s", "potential_s", "step_s"}, func(t *testing.T) Dynamics {
		return FromFluid(fluidTestSim(t, 4), 0)
	}},
}

// TestInstrumentedEngineStepZeroAllocs extends the engines' steady-state
// zero-allocation contract to the fully instrumented round on every
// PhaseTimed backend: per-phase histograms, round counters, an NDJSON
// journal, and the adapter's translation into the obs phase record all
// ride the hot path without allocating (time.Now, atomic updates, and the
// journal's reused scratch buffer are allocation-free once warm).
func TestInstrumentedEngineStepZeroAllocs(t *testing.T) {
	for _, c := range phaseTimedCases {
		t.Run(c.name, func(t *testing.T) {
			d := c.mk(t)
			reg := obs.NewRegistry()
			j := obs.NewJournal(io.Discard)
			Instrument(d, reg, j, 0, 0)
			for i := 0; i < 8; i++ {
				d.Step()
			}
			if allocs := testing.AllocsPerRun(20, func() { d.Step() }); allocs != 0 {
				t.Fatalf("instrumented %s step allocated %.1f times per round, want 0", c.name, allocs)
			}
			if err := j.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// jsonKey matches one object key of a journal row.
var jsonKey = regexp.MustCompile(`"([a-z_]+)":`)

// TestPhaseRowsCarryAdapterRound: every adapter hands its phase timer the
// index of the round it just completed, so a dynamics instrumented after
// k rounds journals its first phase row at round k, the round of the
// round row beside it, under the backend's label and with its phase keys
// in order.
func TestPhaseRowsCarryAdapterRound(t *testing.T) {
	const k = 3
	for _, c := range phaseTimedCases {
		t.Run(c.name, func(t *testing.T) {
			d := c.mk(t)
			trajectory(d, k)
			var buf bytes.Buffer
			j := obs.NewJournal(&buf)
			Instrument(d, nil, j, 0, 0)
			d.Step()
			if err := j.Flush(); err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
			if len(lines) != 2 {
				t.Fatalf("one step journaled %d rows, want a phase row and a round row:\n%s", len(lines), buf.String())
			}
			var phase, round struct {
				T       string `json:"t"`
				Backend string `json:"backend"`
				Round   int    `json:"round"`
			}
			if err := json.Unmarshal(lines[0], &phase); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(lines[1], &round); err != nil {
				t.Fatal(err)
			}
			if phase.T != "phase" || round.T != "round" {
				t.Fatalf("rows are %q then %q, want phase then round", phase.T, round.T)
			}
			if phase.Backend != c.backend {
				t.Errorf("phase row backend %q, want %q", phase.Backend, c.backend)
			}
			if phase.Round != k || round.Round != k {
				t.Errorf("phase row round %d, round row round %d, want both %d", phase.Round, round.Round, k)
			}
			var keys []string
			for _, m := range jsonKey.FindAllSubmatch(lines[0], -1) {
				keys = append(keys, string(m[1]))
			}
			want := append([]string{"t", "cell", "rep", "backend", "round"}, c.keys...)
			if !slices.Equal(keys, want) {
				t.Errorf("phase row keys %v, want %v", keys, want)
			}
		})
	}
}

// TestJournalRecordsFiringsInRoundOrder wires an event schedule's firing
// observer into a journal the way cmd/sweep's scenario runner does and
// checks the journal's event rows: one per applied firing, in round
// order, with within-round schedule order preserved.
func TestJournalRecordsFiringsInRoundOrder(t *testing.T) {
	inst := newTestInstance(t, 31)
	im, err := core.NewImitation(inst.Game, core.ImitationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(inst.State, im, core.WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	d := FromEngine(e)

	sched, err := events.NewSchedule([]events.Event{
		{Round: 1, Every: 2, Kind: events.Arrive, Count: 2, Strategy: 0},
		{Round: 3, Kind: events.Depart, Count: 1, Strategy: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.ValidateFor(inst.Game); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	j := obs.NewJournal(&buf)
	err = d.SetEvents(sched, func(round, index int, kind events.Kind) {
		j.EventFired(0, 0, round, index, string(kind))
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		d.Step()
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}

	type firing struct {
		round, index int
		kind         string
	}
	var got []firing
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var row struct {
			T     string `json:"t"`
			Round int    `json:"round"`
			Index int    `json:"index"`
			Kind  string `json:"kind"`
		}
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatalf("invalid journal line %q: %v", line, err)
		}
		if row.T != "event" {
			continue
		}
		got = append(got, firing{row.Round, row.Index, row.Kind})
	}
	// Firings over rounds 0..5: the recurring arrival at 1, 3, 5 (event
	// index 0) and the one-shot departure at 3 (event index 1).
	want := []firing{
		{1, 0, "arrive"},
		{3, 0, "arrive"},
		{3, 1, "depart"},
		{5, 0, "arrive"},
	}
	if len(got) != len(want) {
		t.Fatalf("journal recorded %d firings %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d = %+v, want %+v (full sequence %v)", i, got[i], want[i], got)
		}
	}
}
