package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"congame/internal/core"
	"congame/internal/dynamics"
	"congame/internal/events"
	"congame/internal/game"
	"congame/internal/prng"
	"congame/internal/workload"
)

// rushWorkers is the engine worker count of the timed rush-4m runs; the
// traced run replays the same rounds at one worker for the baseline.
const rushWorkers = 2

// rushEvents is the recurring rush hour on one hot link: its latency is
// scaled ×4 before every round ≡ 2 (mod 4) and ×¼ before every round ≡ 0
// (mod 4) from round 4 on. Each firing nests another latency.Amplified
// around the link's function, so State.ScaleLatency and every later
// latency evaluation on the link cost more with each earlier firing. That
// is a known defect, and this workload keeps it visible in op_p90_s.
func rushEvents(link int) []events.Event {
	return []events.Event{
		{Round: 2, Every: 4, Kind: events.LatencyScale, Resource: link, Factor: 4},
		{Round: 4, Every: 4, Kind: events.LatencyScale, Resource: link, Factor: 0.25},
	}
}

// rushLink picks the link the rush hour hits. HeavyTraffic packs every
// player onto its hot links, and imitation never adopts an empty link, so
// play stays on the hot links; of those, rushLink takes the one whose
// inverse slope is closest to their mean, so that its equilibrium load is
// closest to an even share. A firing costs time in proportion to that
// load, and link 0's share ranged over 0.60–1.44 of even across seeds
// 1–16, against 0.76–1.15 for this choice.
func rushLink(st *game.State) int {
	g := st.Game()
	var hot []int
	mean := 0.0
	weight := func(e int) float64 { return 1 / g.Resource(e).Latency.Derivative(1) }
	for e := 0; e < g.NumResources(); e++ {
		if st.Load(e) > 0 {
			hot = append(hot, e)
			mean += weight(e)
		}
	}
	mean /= float64(len(hot))
	best := hot[0]
	for _, e := range hot[1:] {
		if math.Abs(weight(e)-mean) < math.Abs(weight(best)-mean) {
			best = e
		}
	}
	return best
}

// Seed-derivation tags: every generated input is prng.Mix of the workload
// seed and one of these.
const (
	tagInstance = iota + 1
	tagEngine
	tagSpec
)

// phiTolerance bounds the relative gap between the engine's incrementally
// maintained potential and a from-scratch State.Potential() at the end of
// a pass. The engine folds one rounded ΔΦ per round and per event firing,
// so the gap grows slowly with the round count: after 200 rounds at
// n = 2^22 it measured 6e-14 and 8e-14 (seeds 1 and 2). A ΔΦ that a
// firing leaves out moves Φ by tens of percent.
const phiTolerance = 1e-9

// rushRun is one rush-4m trajectory.
type rushRun struct {
	dyn     *dynamics.Engine
	n       int
	workers int
	link    int // the rush-hour link
	rounds  int
	movers  int64
	firings int
	// Filled by the step timer of a timed trajectory.
	sum     core.StepTimings
	players int64
	// When tr is set, each round's phases become spans under the
	// adapter span span of op op.
	tr       *tracer
	span, op int
}

// buildRush constructs a fresh trajectory: instance, imitation protocol,
// engine, adapter and rush-hour schedule. The events mutate the game
// itself, so every trajectory needs its own instance. A timed trajectory
// sums the engine's phase timings and counts event firings; a tracer, when
// given, gets a span around the instance build.
func buildRush(cfg config, workers int, timed bool, tr *tracer) (*rushRun, error) {
	r := &rushRun{n: cfg.Players, workers: workers, tr: tr}
	var sp int
	if tr != nil {
		sp = tr.begin("workload.HeavyTraffic", -1, 0)
	}
	inst, err := workload.HeavyTraffic(cfg.Players, cfg.Links, prng.New(prng.Mix(cfg.Seed, tagInstance)))
	if tr != nil {
		tr.end(sp)
	}
	if err != nil {
		return nil, err
	}
	proto, err := core.NewImitation(inst.Game, core.ImitationConfig{})
	if err != nil {
		return nil, err
	}
	opts := []core.Option{core.WithSeed(prng.Mix(cfg.Seed, tagEngine)), core.WithWorkers(workers)}
	if timed {
		opts = append(opts, core.WithStepTimer(r.observeStep))
	}
	eng, err := core.NewEngine(inst.State, proto, opts...)
	if err != nil {
		return nil, err
	}
	r.dyn = dynamics.FromEngine(eng)
	r.link = rushLink(inst.State)
	sched, err := events.NewSchedule(rushEvents(r.link))
	if err != nil {
		return nil, err
	}
	var fobs []events.FiringObserver
	if timed {
		fobs = append(fobs, func(int, int, events.Kind) { r.firings++ })
	}
	if err := r.dyn.SetEvents(sched, fobs...); err != nil {
		return nil, err
	}
	return r, nil
}

// observeStep is the engine's step timer: it sums the phases and, when
// tracing, records the engine step and its four phases as spans. The
// timer runs as Step returns, so the phases are laid end to end backwards
// from now.
func (r *rushRun) observeStep(s core.RoundStats, t core.StepTimings) {
	r.sum.PreRound += t.PreRound
	r.sum.Sync += t.Sync
	r.sum.Decide += t.Decide
	r.sum.Apply += t.Apply
	r.sum.Step += t.Step
	r.players += int64(s.Players)
	if r.tr == nil {
		return
	}
	end := time.Now()
	start := end.Add(-t.Step)
	step := r.tr.add("core.Engine.Step", r.op, r.span, start, end)
	at := start
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{
		{"events.PreRound", t.PreRound},
		{"game.RoundView.Sync", t.Sync},
		{"core.decide", t.Decide},
		{"game.State.ApplyDeltas", t.Apply},
	} {
		r.tr.add(ph.name, r.op, step, at, at.Add(ph.d))
		at = at.Add(ph.d)
	}
}

// step runs one round (the op) and checks that the population is intact.
func (r *rushRun) step() error {
	s := r.dyn.Step()
	r.rounds++
	r.movers += int64(s.Movers)
	if s.Players != r.n {
		return fmt.Errorf("round %d ran with %d players, want %d", s.Round, s.Players, r.n)
	}
	if !(s.Potential > 0) || math.IsInf(s.Potential, 0) {
		return fmt.Errorf("round %d potential %v", s.Round, s.Potential)
	}
	return nil
}

// digest identifies the trajectory by its round count, summed movers, the
// final potential's bits and the rush-hour link; neither the worker count
// nor tracing may change it.
func (r *rushRun) digest() string {
	return fmt.Sprintf("rounds=%d movers=%d phi=%016x link=%d", r.rounds, r.movers, math.Float64bits(r.dyn.Potential()), r.link)
}

// check compares the incremental potential with a from-scratch
// recomputation and the final population with n.
func (r *rushRun) check() error {
	if err := checkPotential(r.dyn.Potential(), r.dyn.State().Potential()); err != nil {
		return err
	}
	if n := r.dyn.State().Game().NumPlayers(); n != r.n {
		return fmt.Errorf("run ended with %d players, want %d", n, r.n)
	}
	return nil
}

// checkPotential accepts an incremental potential within phiTolerance of
// the reference.
func checkPotential(inc, ref float64) error {
	if rel := math.Abs(inc-ref) / math.Abs(ref); !(rel <= phiTolerance) {
		return fmt.Errorf("incremental potential %v differs from the recomputed %v by %.3g relative (tolerance %g)", inc, ref, rel, phiTolerance)
	}
	return nil
}

// checkDigests accepts trajectories whose digests all equal the first.
func checkDigests(names, digests []string) error {
	for i := 1; i < len(digests); i++ {
		if digests[i] != digests[0] {
			return fmt.Errorf("%s digest %s differs from %s digest %s", names[i], digests[i], names[0], digests[0])
		}
	}
	return nil
}

// finish checks the trajectory and returns its digest, then drops the
// instance and collects it, so that peak memory holds one trajectory at a
// time. A multi-worker engine shuts its pool down from a finalizer, which
// keeps the engine and its state reachable until the collection after the
// one that queued it, so finish collects until the pool has exited.
func (r *rushRun) finish() (string, error) {
	err := r.check()
	d := r.digest()
	r.dyn = nil
	pool := r.workers - 1
	before := runtime.NumGoroutine()
	for i := 0; i < 50 && pool > 0 && runtime.NumGoroutine() > before-pool; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	runtime.GC()
	return d, err
}

// runRush is the rush-4m workload: one caller steps the adapter back to
// back, timed per round, in passes of PassRounds rounds, each from a fresh
// instance built outside the timing; it starts another pass while the
// budget lasts. Every pass is the same trajectory, so a run times the same
// rounds on any host and any commit: pre-round cost grows with the firings
// before a round, and a run that stepped on until its budget ran out would
// give a faster program later, costlier rounds.
func runRush(cfg config) (*results, error) {
	res := newResults(cfg.Workload)
	if cfg.Trace {
		return traceRush(cfg, res)
	}
	var run *rushRun
	setups, err := timeSetups(cfg.SetupReps, func() (err error) {
		run, err = buildRush(cfg, rushWorkers, false, nil)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	all := &loop{}
	deadline := time.Now().Add(seconds(cfg.Seconds))
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		if pass > 0 {
			if run, err = buildRush(cfg, rushWorkers, false, nil); err != nil {
				return nil, err
			}
		}
		l := closedLoop(1, 0, cfg.PassRounds, cfg.PassRounds, func(int) error { return run.step() })
		d, err := run.finish()
		if pass == 0 {
			res.digest = d
		} else if err == nil && d != res.digest {
			err = fmt.Errorf("digest %s differs from pass 0's", d)
		}
		if err != nil {
			// The checks cover the whole pass, so every round fails them.
			l.failed = len(l.lat)
			l.errs = append(l.errs, fmt.Sprintf("pass %d: %v", pass, err))
		}
		sorted := sortedCopy(l.lat)
		res.extra = append(res.extra, fmt.Sprintf("pass %d: %d rounds in %.3fs, p50=%.4fs p90=%.4fs",
			pass, len(l.lat), l.wall, quantile(sorted, 0.5), quantile(sorted, 0.9)))
		all.add(l)
	}
	res.countOps(all)
	return res, res.setE2E(setups, all)
}

// traceRush runs one pass three times from the same initial state:
// untraced, traced, and traced at one engine worker. The first two give
// the tracing overhead, the last two the worker speed-up, and all three
// must reach the same digest.
func traceRush(cfg config, res *results) (*results, error) {
	rounds := cfg.PassRounds
	fixed := func(each func(i int) error) *loop {
		l := closedLoop(1, 0, rounds, rounds, each)
		res.countOps(l)
		return l
	}

	names := []string{"untraced", "traced", "workers-1"}
	var digests []string
	finish := func(r *rushRun) {
		d, err := r.finish()
		if err != nil {
			res.reject("%s: %v", names[len(digests)], err)
		}
		digests = append(digests, d)
	}

	plain, err := buildRush(cfg, rushWorkers, false, nil)
	if err != nil {
		return nil, err
	}
	lp := fixed(func(int) error { return plain.step() })
	finish(plain)

	tr := newTracer()
	traced, err := buildRush(cfg, rushWorkers, true, tr)
	if err != nil {
		return nil, err
	}
	lt := fixed(func(i int) error {
		traced.op, traced.span = i, tr.begin("dynamics.Engine.Step", i, 0)
		err := traced.step()
		tr.end(traced.span)
		return err
	})
	finish(traced)

	w1, err := buildRush(cfg, 1, true, nil)
	if err != nil {
		return nil, err
	}
	fixed(func(int) error { return w1.step() })
	finish(w1)
	if err := checkDigests(names, digests); err != nil {
		res.reject("%v", err)
	}
	res.digest = digests[1]

	n := float64(rounds)
	sec := func(d time.Duration) float64 { return d.Seconds() / n }
	s := traced.sum
	spans := tr.summary()
	players := float64(traced.players)
	res.set("core.step_s", sec(s.Step), "Σ StepTimings.Step ÷ rounds")
	res.set("core.decide_s", sec(s.Decide), "prng block fill + decide kernels")
	res.set("core.decide_ns_per_player", ratio(float64(s.Decide.Nanoseconds()), players), fmt.Sprintf("%d players decided", traced.players))
	res.set("core.move_frac", ratio(float64(traced.movers), players), "exact")
	res.set("core.phase_cover", ratio((s.PreRound+s.Sync+s.Decide+s.Apply).Seconds(), s.Step.Seconds()),
		"(pre-round + sync + decide + apply) ÷ step")
	res.set("core.worker_speedup", ratio(w1.sum.Decide.Seconds(), s.Decide.Seconds()),
		fmt.Sprintf("decide at 1 worker %.4fs ÷ at %d workers %.4fs", w1.sum.Decide.Seconds(), rushWorkers, s.Decide.Seconds()))
	res.set("game.sync_s", sec(s.Sync), "")
	res.set("game.apply_s", sec(s.Apply), "")
	res.set("events.pre_round_s", sec(s.PreRound), "")
	res.set("events.firings", float64(traced.firings), "exact, FiringObserver")
	res.set("dynamics.self_s", spans["dynamics.Engine.Step"].Self/n, "adapter span − StepTimings.Step")
	res.set("workload.build_s", spans["workload.HeavyTraffic"].Total, "")
	res.set("trace.overhead_frac", ratio(lt.total(), lp.total())-1,
		fmt.Sprintf("traced %.4fs ÷ untraced %.4fs over the same %d rounds, minus 1", lt.total(), lp.total(), rounds))
	for _, m := range []string{
		"fluid.step_s", "scenario.parse_s", "scenario.cell_s", "scenario.self_s", "scenario.rep_overhead_s",
		"scenario.reps", "scenario.checkpointed_ratio", "runner.busy_s", "runner.queue_wait_s", "runner.utilization",
		"serve.submit_s", "serve.result_s", "serve.queue_wait_s", "serve.run_s", "serve.first_event_s",
		"serve.stream_lag_s", "checkpoint.manifest_bytes", "obs.journal_bytes", "obs.journal_rows",
	} {
		res.unavailable(m, "not reached: rush-4m drives one engine directly")
	}
	return res, tr.write(spanPath(cfg), res, cfg)
}

// spanPath is where a traced run writes its spans.
func spanPath(cfg config) string {
	return filepath.Join(cfg.Work, fmt.Sprintf("spans-%s-seed%d.json", cfg.Workload, cfg.Seed))
}
