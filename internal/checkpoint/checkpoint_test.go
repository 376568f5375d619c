package checkpoint

// The differential wall for checkpoint/resume: for every backend, for
// every checkpoint round c in [0, R], and (where the backend is
// parallel) for workers ∈ {1, 2, GOMAXPROCS}, a run that executes c
// rounds, snapshots, encodes, decodes, restores onto a freshly built
// twin, and executes the remaining R−c rounds must reproduce the
// uninterrupted reference trajectory bit for bit — every per-round stat,
// the final assignment/mass, the raw potential bits, and the strategy
// registry. The exact backend is additionally exercised under a full
// event schedule (churn, latency scaling, add-link, remove-link) and
// under the EXPLORATION PROTOCOL (runtime strategy registration), the
// two paths where restore must rebuild mutated topology.

import (
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"congame/internal/core"
	"congame/internal/events"
	"congame/internal/fluid"
	"congame/internal/prng"
	"congame/internal/workload"
)

// workerSet is the worker-count sweep the acceptance criteria require.
// GOMAXPROCS may duplicate an earlier entry; the repetition is harmless.
func workerSet() []int { return []int{1, 2, runtime.GOMAXPROCS(0)} }

type recorder struct{ rows *[]core.RoundStats }

func (r recorder) Observe(s core.RoundStats) { *r.rows = append(*r.rows, s) }

// roundTrip pushes a snapshot through Encode/Decode and asserts the
// decoded copy is field-identical, so every differential below also pins
// the codec.
func roundTrip(t *testing.T, s *Snapshot) *Snapshot {
	t.Helper()
	got, err := Decode(s.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("codec round trip:\n got %+v\nwant %+v", got, s)
	}
	return got
}

// exactBuilder constructs a fresh engine (and optional schedule) for one
// worker count; every call must produce an identical instance.
type exactBuilder func(t *testing.T, workers int, rec *[]core.RoundStats) (*core.Engine, *events.Schedule)

// exactFingerprint is everything the exact differential compares at the
// end of a run.
type exactFingerprint struct {
	round      int
	moves      int
	phiBits    uint64
	players    int
	assign     []int32
	strategies [][]int32
	retired    []bool
}

func fingerprintExact(e *core.Engine) exactFingerprint {
	st := e.State()
	g := st.Game()
	fp := exactFingerprint{
		round:   e.Round(),
		moves:   e.TotalMoves(),
		phiBits: math.Float64bits(e.Potential()),
		players: g.NumPlayers(),
		assign:  append([]int32(nil), st.AssignmentView()...),
	}
	for i := 0; i < g.NumStrategies(); i++ {
		fp.strategies = append(fp.strategies, append([]int32(nil), g.StrategyView(i)...))
		fp.retired = append(fp.retired, g.StrategyRetired(i))
	}
	return fp
}

// exactDifferential runs the checkpoint-at-every-round wall for one exact
// scenario.
func exactDifferential(t *testing.T, build exactBuilder, rounds int) {
	t.Helper()
	var refStats []core.RoundStats
	ref, _ := build(t, 1, &refStats)
	for i := 0; i < rounds; i++ {
		ref.Step()
	}
	if len(refStats) != rounds {
		t.Fatalf("reference recorded %d rounds, want %d", len(refStats), rounds)
	}
	want := fingerprintExact(ref)

	for _, w := range workerSet() {
		for c := 0; c <= rounds; c++ {
			pre, _ := build(t, w, nil)
			for i := 0; i < c; i++ {
				pre.Step()
			}
			snap := roundTrip(t, CaptureEngine(pre, 0))

			var resumed []core.RoundStats
			res, sched := build(t, w, &resumed)
			if err := RestoreEngine(res, snap, sched); err != nil {
				t.Fatalf("workers=%d c=%d: restore: %v", w, c, err)
			}
			for i := c; i < rounds; i++ {
				res.Step()
			}
			if len(resumed) != rounds-c {
				t.Fatalf("workers=%d c=%d: resumed run recorded %d rounds, want %d", w, c, len(resumed), rounds-c)
			}
			for i, s := range resumed {
				if s != refStats[c+i] {
					t.Fatalf("workers=%d c=%d round %d:\n got %+v\nwant %+v", w, c, c+i, s, refStats[c+i])
				}
			}
			if got := fingerprintExact(res); !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d c=%d: final state diverged:\n got %+v\nwant %+v", w, c, got, want)
			}
		}
	}
}

func engineOpts(workers int, seed uint64, rec *[]core.RoundStats) []core.Option {
	opts := []core.Option{core.WithSeed(seed), core.WithWorkers(workers)}
	if rec != nil {
		opts = append(opts, core.WithObserver(recorder{rec}))
	}
	return opts
}

func TestExactCheckpointEveryRoundSingletons(t *testing.T) {
	build := func(t *testing.T, workers int, rec *[]core.RoundStats) (*core.Engine, *events.Schedule) {
		t.Helper()
		inst, err := workload.LinearSingletons(8, 300, 4, prng.New(17))
		if err != nil {
			t.Fatal(err)
		}
		im, err := core.NewImitation(inst.Game, core.ImitationConfig{})
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.NewEngine(inst.State, im, engineOpts(workers, 101, rec)...)
		if err != nil {
			t.Fatal(err)
		}
		return e, nil
	}
	exactDifferential(t, build, 20)
}

// eagerSampler inflates the reported strategy-space size so exploration
// registers new path strategies within the test's short horizon (the same
// device the worker-parity tests use).
type eagerSampler struct{ *core.NetworkSampler }

func (e eagerSampler) StrategySpaceSize() float64 { return 1e12 }

// TestExactCheckpointEveryRoundExploration drives the restore path that
// re-registers runtime-discovered strategies: the snapshot's table is
// longer than the spec-built prefix, and restore must rebuild interning
// in ID order.
func TestExactCheckpointEveryRoundExploration(t *testing.T) {
	build := func(t *testing.T, workers int, rec *[]core.RoundStats) (*core.Engine, *events.Schedule) {
		t.Helper()
		inst, err := workload.PolyNetwork(5, 4, 300, 2, 2, prng.New(13))
		if err != nil {
			t.Fatal(err)
		}
		sampler, err := core.NewNetworkSampler(*inst.Net)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := core.NewExploration(inst.Game, core.ExplorationConfig{Sampler: eagerSampler{sampler}})
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.NewEngine(inst.State, ex, engineOpts(workers, 21, rec)...)
		if err != nil {
			t.Fatal(err)
		}
		return e, nil
	}

	// The reference must actually discover strategies, or the table
	// re-registration path went untested.
	var stats []core.RoundStats
	ref, _ := build(t, 1, &stats)
	for i := 0; i < 16; i++ {
		ref.Step()
	}
	discovered := 0
	for _, s := range stats {
		discovered += s.NewStrategies
	}
	if discovered == 0 {
		t.Fatal("exploration registered no new strategies — restore registration path untested")
	}

	exactDifferential(t, build, 16)
}

// TestExactCheckpointEveryRoundWithEvents checkpoints through a live
// schedule exercising all five event kinds, so restore replays latency
// scaling and link additions and overlays churn and retirement.
func TestExactCheckpointEveryRoundWithEvents(t *testing.T) {
	build := func(t *testing.T, workers int, rec *[]core.RoundStats) (*core.Engine, *events.Schedule) {
		t.Helper()
		inst, err := workload.LinearSingletons(5, 300, 4, prng.New(41))
		if err != nil {
			t.Fatal(err)
		}
		sched, err := events.NewSchedule([]events.Event{
			{Round: 2, Every: 3, Kind: events.Arrive, Count: 7, Strategy: 1},
			{Round: 3, Every: 4, Kind: events.Depart, Count: 5, Strategy: 2},
			{Round: 5, Every: 6, Kind: events.LatencyScale, Resource: 0, Factor: 1.5},
			{Round: 8, Kind: events.AddLink, Latency: &events.LatencySpec{Kind: "affine", A: 0.75, B: 0.25}, Strategies: [][]int{{5}}},
			{Round: 12, Kind: events.RemoveLink, Resource: 3, Fallback: 0},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.ValidateFor(inst.Game); err != nil {
			t.Fatal(err)
		}
		im, err := core.NewImitation(inst.Game, core.ImitationConfig{})
		if err != nil {
			t.Fatal(err)
		}
		opts := append(engineOpts(workers, 97, rec), core.WithPreRound(sched.Hook()))
		e, err := core.NewEngine(inst.State, im, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return e, sched
	}
	exactDifferential(t, build, 18)
}

// fluidScenario builds a fresh sim (and optional schedule); every call is
// identical.
type fluidScenario func(t *testing.T) (*fluid.Sim, *events.Schedule)

// applyFluidEvents mirrors the dynamics.Fluid adapter's pre-round event
// application, so the test drives the same sequence a scenario run would.
func applyFluidEvents(t *testing.T, sim *fluid.Sim, sched *events.Schedule) {
	t.Helper()
	if sched == nil {
		return
	}
	err := sched.EachActive(sim.Round(), func(ev events.Event) error {
		switch ev.Kind {
		case events.Arrive:
			return sim.Arrive(ev.Strategy, ev.Count)
		case events.Depart:
			return sim.Depart(ev.Strategy, ev.Count)
		case events.LatencyScale:
			return sim.ScaleLatency(ev.Resource, ev.Factor)
		case events.AddLink:
			fn, err := ev.Latency.Build()
			if err != nil {
				return err
			}
			return sim.AddLink(fn)
		case events.RemoveLink:
			return sim.RemoveLink(ev.Resource, ev.Fallback)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("applying events at round %d: %v", sim.Round(), err)
	}
}

func fluidDifferential(t *testing.T, build fluidScenario, rounds int) {
	t.Helper()
	ref, refSched := build(t)
	var refStats []fluid.RoundStats
	for i := 0; i < rounds; i++ {
		applyFluidEvents(t, ref, refSched)
		refStats = append(refStats, ref.Step())
	}
	wantMass := append([]float64(nil), ref.Mass()...)
	wantPhi := math.Float64bits(ref.Potential())

	for c := 0; c <= rounds; c++ {
		pre, preSched := build(t)
		for i := 0; i < c; i++ {
			applyFluidEvents(t, pre, preSched)
			pre.Step()
		}
		snap := roundTrip(t, CaptureFluid(pre, 0))

		res, resSched := build(t)
		if err := RestoreFluid(res, snap, resSched); err != nil {
			t.Fatalf("c=%d: restore: %v", c, err)
		}
		for i := c; i < rounds; i++ {
			applyFluidEvents(t, res, resSched)
			if got := res.Step(); got != refStats[i] {
				t.Fatalf("c=%d round %d:\n got %+v\nwant %+v", c, i, got, refStats[i])
			}
		}
		gotMass := res.Mass()
		if len(gotMass) != len(wantMass) {
			t.Fatalf("c=%d: %d links, want %d", c, len(gotMass), len(wantMass))
		}
		for e := range wantMass {
			if math.Float64bits(gotMass[e]) != math.Float64bits(wantMass[e]) {
				t.Fatalf("c=%d: link %d mass %v, want %v (bit-exact)", c, e, gotMass[e], wantMass[e])
			}
		}
		if got := math.Float64bits(res.Potential()); got != wantPhi {
			t.Fatalf("c=%d: potential bits %x, want %x", c, got, wantPhi)
		}
	}
}

func fluidBase(t *testing.T) *fluid.Sim {
	t.Helper()
	inst, err := workload.LinearSingletons(6, 400, 3, prng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := fluid.FromGame(inst.Game, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := fluid.NewSim(sys, fluid.EmpiricalDistribution(inst.State, nil), fluid.SimConfig{Substeps: 4})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestFluidCheckpointEveryRound(t *testing.T) {
	fluidDifferential(t, func(t *testing.T) (*fluid.Sim, *events.Schedule) {
		return fluidBase(t), nil
	}, 20)
}

// TestFluidCheckpointEveryRoundWithEvents checkpoints through live churn,
// rush-hour amplification, and topology events — the wrapper-chain capture
// path (fluid.WrapChains) that structural replay cannot reproduce.
func TestFluidCheckpointEveryRoundWithEvents(t *testing.T) {
	fluidDifferential(t, func(t *testing.T) (*fluid.Sim, *events.Schedule) {
		sched, err := events.NewSchedule([]events.Event{
			{Round: 2, Every: 3, Kind: events.Arrive, Count: 20, Strategy: 1},
			{Round: 3, Every: 4, Kind: events.Depart, Count: 15, Strategy: 2},
			{Round: 5, Every: 6, Kind: events.LatencyScale, Resource: 0, Factor: 1.5},
			{Round: 7, Every: 5, Kind: events.LatencyScale, Resource: 0, Factor: 0.8},
			{Round: 8, Kind: events.AddLink, Latency: &events.LatencySpec{Kind: "affine", A: 0.75, B: 0.25}, Strategies: [][]int{{6}}},
			{Round: 12, Kind: events.RemoveLink, Resource: 3, Fallback: 0},
		})
		if err != nil {
			t.Fatal(err)
		}
		return fluidBase(t), sched
	}, 18)
}

// TestSnapshotFileRoundTrip pins the atomic persistence path.
func TestSnapshotFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.bin")
	want := &Snapshot{
		Kind:        Fluid,
		Round:       42,
		QuietStreak: 3,
		Phi:         1.25,
		MoveMass:    1e-7,
		Mass:        []float64{0.5, 0.25, 0.25},
		Wraps:       []fluid.LinkWrap{{Pop: 400}, {Pop: 400, Scale: 1.2}, {Pop: 400}},
	}
	if err := WriteBytes(path, want.Encode()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("file round trip:\n got %+v\nwant %+v", got, want)
	}
}

// reseal recomputes and replaces the trailing CRC after a mutation, so a
// test can target the validation layers beneath it.
func reseal(body []byte) []byte {
	w := writer{buf: body}
	w.u32(crc32.ChecksumIEEE(body))
	return w.buf
}

func TestDecodeRejectsCorruption(t *testing.T) {
	good := (&Snapshot{
		Kind:        Exact,
		Round:       5,
		QuietStreak: 1,
		Moves:       17,
		Phi:         2.5,
		Assign:      []int32{0, 1, 2},
		Strategies:  [][]int32{{0}, {1}, {2}},
		Retired:     []bool{false, true, false},
	}).Encode()
	if _, err := Decode(good); err != nil {
		t.Fatalf("control decode failed: %v", err)
	}

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated header", good[:6]},
		{"truncated payload", good[:len(good)-6]},
		{"flipped payload byte", func() []byte {
			b := append([]byte(nil), good...)
			b[10] ^= 0xff
			return b
		}()},
		{"bad magic", func() []byte {
			b := append([]byte(nil), good...)
			b[0] = 'X'
			return b
		}()},
		{"future version", func() []byte {
			b := append([]byte(nil), good[:len(good)-4]...)
			b[4] = byte(FormatVersion + 1)
			return reseal(b)
		}()},
		{"trailing bytes", reseal(append(append([]byte(nil), good[:len(good)-4]...), 0))},
		{"unknown kind", func() []byte {
			b := append([]byte(nil), good[:len(good)-4]...)
			b[6] = 99
			return reseal(b)
		}()},
		{"unknown kind 2 (the retired weighted snapshot)", func() []byte {
			w := writer{buf: append([]byte(nil), magic[:]...)}
			w.u16(FormatVersion)
			w.u8(2)
			w.i64(9) // round
			w.i64(0) // quiet streak
			w.i32s([]int32{1, 0, 1})
			w.f64s([]float64{2.5, 4})
			return reseal(w.buf)
		}()},
		{"oversized count", func() []byte {
			b := append([]byte(nil), good[:len(good)-4]...)
			// Assign length prefix sits after magic(4)+version(2)+kind(1)+
			// round(8)+streak(8)+moves(8)+phi(8) = 39 bytes.
			for i := 39; i < 47; i++ {
				b[i] = 0xff
			}
			return reseal(b)
		}()},
	}
	for _, tc := range cases {
		if _, err := Decode(tc.data); err == nil {
			t.Errorf("%s: decode accepted corrupt snapshot", tc.name)
		}
	}
}

// TestRestoreRejectsKindMismatch pins the cross-backend guard rails.
func TestRestoreRejectsKindMismatch(t *testing.T) {
	exact := &Snapshot{Kind: Exact}
	fl := &Snapshot{Kind: Fluid}

	sim := fluidBase(t)
	if err := RestoreFluid(sim, exact, nil); err == nil {
		t.Error("fluid restore accepted an exact snapshot")
	}
	inst, err := workload.LinearSingletons(4, 50, 2, prng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	im, err := core.NewImitation(inst.Game, core.ImitationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(inst.State, im, core.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := RestoreEngine(e, fl, nil); err == nil {
		t.Error("exact restore accepted a fluid snapshot")
	}
}

// TestRestoreRejectsSpecMismatch: a snapshot whose strategy table does
// not match the instance fails loudly instead of silently forking the
// trajectory. (Divergence a table comparison cannot see — say, the same
// singleton structure over different latency slopes — is the caller's
// contract: restore onto the same spec and seeds.)
func TestRestoreRejectsSpecMismatch(t *testing.T) {
	mkEngine := func(links int, seed uint64) *core.Engine {
		inst, err := workload.PolyNetwork(4, links, 200, 2, 6, prng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		im, err := core.NewImitation(inst.Game, core.ImitationConfig{})
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.NewEngine(inst.State, im, core.WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	src := mkEngine(3, 11)
	for i := 0; i < 3; i++ {
		src.Step()
	}
	snap := CaptureEngine(src, 0)
	if err := RestoreEngine(mkEngine(3, 12), snap, nil); err == nil {
		t.Error("restore accepted a snapshot from a differently seeded instance")
	}
}
