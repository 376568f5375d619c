// Package congame is a from-scratch Go reproduction of
//
//	Heiner Ackermann, Petra Berenbrink, Simon Fischer, Martin Hoefer.
//	"Concurrent Imitation Dynamics in Congestion Games." PODC 2009.
//
// The library implements atomic congestion games (singleton, general, and
// network games on DAGs), the paper's concurrent IMITATION PROTOCOL and
// EXPLORATION PROTOCOL with their overshoot-safe migration probabilities,
// a deterministic concurrent simulation engine built on goroutines, the
// solution concepts (imitation stability, (δ,ε,ν)-equilibria, Nash), the
// sequential baselines the paper compares against, and an experiment suite
// that reproduces every theorem-level claim (see DESIGN.md and
// EXPERIMENTS.md).
//
// # Snapshot architecture
//
// All latency consumers run against the game.Snapshot interface: the
// engine maintains every resource and strategy latency in an immutable
// game.RoundView, refreshed incrementally each round from the state's
// per-resource mutation epochs (only links whose load changed re-evaluate
// their latency functions), so protocol decisions, stop conditions, and
// equilibrium checks are table lookups with no latency-function dispatch
// on the hot path; game.State's direct methods remain the bit-identical
// reference implementation (DESIGN.md §2, §8).
//
// # Parallel rounds
//
// The engine shards the entire round (one worker runs its single shard
// inline, at zero steady-state allocations): each worker decides a
// contiguous range of players against the shared RoundView and
// accumulates its migrations (per-resource load deltas, reassignments,
// newly discovered strategies) into a private game.Delta;
// game.State.ApplyDeltas then merges the shards in shard-index order —
// registering new strategies in global first-proposer order, handing each
// shard the exact intermediate load vector at its sequential entry point,
// replaying the per-move potential changes in parallel with the same code
// path State.Move uses, and folding them in player order (DESIGN.md §3).
//
// # Determinism contract
//
// Fixed (seed, protocol, initial state) implies a bit-identical
// trajectory — every assignment, every RoundStats field, every bit of the
// incrementally maintained Rosenthal potential — regardless of the worker
// count, GOMAXPROCS, or goroutine scheduling. This holds because each
// player's decision stream is derived purely from (seed, round, player)
// via SplitMix64 (internal/prng), decisions read only the immutable
// round-start view, and the sharded apply phase is constructed to
// reproduce the sequential apply loop exactly (DESIGN.md §4; pinned by
// the parity tests in internal/core and internal/game).
//
// # Dynamics interface and replication-parallel runner
//
// internal/dynamics unifies the four dynamics families — the concurrent
// engine, the weighted engine, the sequential baselines, and the
// mean-field fluid limit — behind one Dynamics interface
// (Step/Run/Round/Potential over shared RoundStats/RunResult types) with
// transparent, bit-identical adapters.
// internal/runner fans independent replications of any Dynamics out
// across a bounded worker pool and folds results in replication order,
// so experiment aggregates are bit-identical for every parallelism. The
// two parallelism axes compose: workers shard one round, the runner runs
// many simulations (DESIGN.md §6).
//
// # Declarative scenarios
//
// internal/scenario makes a scenario data instead of Go: a versioned JSON
// spec names an instance family, a dynamics kind, a stop condition, a
// replication schedule, and a parameter grid; string-keyed registries
// resolve the names, grid cells derive their seeds purely from spec
// coordinates, and cmd/sweep runs a spec file end-to-end. The committed
// example specs under examples/scenarios reproduce cmd/experiments
// tables byte-for-byte (DESIGN.md §7).
//
// # Mean-field fast path
//
// internal/fluid simulates the n→∞ limit of the IMITATION PROTOCOL on
// singleton games as a deterministic flow of strategy mass: O(m) state,
// an O(m log m) sorted prefix-sum derivative, and a unit-time Euler
// round map that is exactly the protocol's expected one-round update.
// Rounds cost the same at n = 10⁶ as at n = 10²; fluid.DriftTracker
// measures the fluid-vs-exact gap (O(n^{-1/2}), pinned by tests and
// experiment E15), and the scenario registry exposes the backend as the
// "fluid-imitation" dynamics kind with fluid_drift_* metrics
// (DESIGN.md §9).
//
// # Live scenarios
//
// internal/events adds deterministic between-round event schedules:
// population churn (player arrivals and departures, with a rate knob),
// time-varying latency (rush-hour amplification of a link's function),
// and topology mutation (adding links with new strategies, removing
// links by retiring the strategies that use them). Game state supports
// dynamic n and all of these in-place with exact incremental potential
// updates; schedules apply through the engine's pre-round hook, so
// evented runs keep the bit-identical determinism contract across all
// worker counts, and a differential test wall pins every mutation
// against from-scratch rebuilds. Version-2 scenario specs carry an
// "events" block (both the exact engine and the fluid backend accept
// it), and experiment E16 measures re-equilibration time after each
// shock kind (DESIGN.md §10).
//
// # Observability
//
// internal/obs adds a zero-overhead-when-disabled telemetry layer:
// atomic counters, gauges, and fixed-bucket histograms behind an
// idempotent registry that renders Prometheus text format and JSON; an
// allocation-free NDJSON run journal (round stats, per-phase timings,
// event firings, cell boundaries); and an HTTP exporter with pprof
// endpoints. The engines expose read-only per-phase timing hooks
// (decide/record/apply/sync and the pre-round event hook), so attaching
// a registry or journal never changes a trajectory — instrumented runs
// are bit-identical to bare ones, and the instrumented engine round
// stays allocation-free (DESIGN.md §12). cmd/sweep and cmd/imitsim
// serve live telemetry via -metrics-addr and stream journals via
// -journal; `bench overhead` gates the instrumentation cost.
//
// Packages:
//
//	internal/latency    latency functions, elasticity, slope bounds
//	internal/game       game model, states, Rosenthal potential
//	internal/graph      networks, path counting/sampling, Dijkstra
//	internal/core       the protocols and the concurrent engine
//	internal/eq         equilibrium predicates and best-response oracles
//	internal/baseline   sequential dynamics baselines
//	internal/threshold  Theorem 6 threshold games and MaxCut gadgets
//	internal/opt        social optima, fractional bounds, minimum potential
//	internal/netopt     Frank–Wolfe flows: Wardrop equilibria, system optima
//	internal/fluid      mean-field imitation dynamics (n→∞ ODE backend)
//	internal/weighted   weighted-players extension
//	internal/events     between-round event schedules (churn, topology)
//	internal/dynamics   unified Dynamics interface + per-family adapters
//	internal/runner     replication-parallel executor (deterministic folds)
//	internal/workload   named instance families
//	internal/sim        experiment registry E1–E16 and table rendering
//	internal/scenario   declarative scenario specs + parameter-sweep engine
//	internal/stats      summary statistics and scaling fits
//	internal/trace      trajectory recording, CSV/NDJSON, sparklines
//	internal/obs        metrics, run journal, Prometheus/JSON exporter
//
// Binaries: cmd/imitsim (runs and explains one trajectory of a one-cell
// scenario spec), cmd/experiments (regenerates every experiment table),
// cmd/sweep (runs declarative scenario specs), cmd/serve (the simulation
// daemon), cmd/bench (machine-readable benchmark report), and
// cmd/metricscheck (metrics-schema gate). Runnable examples live under
// examples/.
package congame
