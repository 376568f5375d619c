package dynamics

import (
	"math/rand"

	"congame/internal/baseline"
	"congame/internal/core"
	"congame/internal/eq"
	"congame/internal/game"
)

// Sequential adapts the package-baseline sequential dynamics (best
// response, ε-greedy better response, sequential imitation, Goldberg's
// randomized local search) to the Dynamics interface. One Step executes
// one activation — one call into the baseline with a unit step budget
// (Goldberg: one chunk of selections) — so Round counts activations, the
// unit the paper charges sequential dynamics in.
//
// Per-activation RoundStats report Round, Movers, Potential, AvgLatency,
// and MaxLatency. Potential is a running Φ: the exact potential at
// construction plus the ΔΦ that State.Move returned for every applied move
// (baseline.Result.DeltaPotential). The Potential method is the exact
// O(Σ_e x_e) recompute.
//
// The best-response and imitation dynamics self-absorb: a Step that finds
// no improving move marks the dynamics absorbed without counting an
// activation, matching baseline.Result.Steps ("moves applied"). Goldberg
// never self-absorbs — its internal Nash probe is part of a chunk, and
// callers stop it with a StopCondition or the round budget, exactly like
// the hand-rolled harness loops it replaces.
type Sequential struct {
	st          *game.State
	step        func() (baseline.Result, error)
	stride      int     // activations per Step
	countsMoves bool    // whether every counted activation is one migration
	phi         float64 // running potential (see the type comment)
	rounds      int
	moves       int
	absorbed    bool
	err         error
	obs         []core.RoundObserver
}

var _ Dynamics = (*Sequential)(nil)
var _ Observable = (*Sequential)(nil)

// NewBestResponse wraps sequential best-response dynamics; parameters are
// validated exactly as by baseline.BestResponse.
func NewBestResponse(st *game.State, oracle eq.Oracle, pol baseline.Policy, rng *rand.Rand) (*Sequential, error) {
	if _, err := baseline.BestResponse(st, oracle, pol, rng, 0); err != nil {
		return nil, err
	}
	return &Sequential{
		st:          st,
		stride:      1,
		countsMoves: true,
		phi:         st.Potential(),
		step: func() (baseline.Result, error) {
			return baseline.BestResponse(st, oracle, pol, rng, 1)
		},
	}, nil
}

// NewEpsilonGreedy wraps the ε-greedy better-response dynamics.
func NewEpsilonGreedy(st *game.State, oracle eq.Oracle, eps float64, rng *rand.Rand) (*Sequential, error) {
	if _, err := baseline.EpsilonGreedyBestResponse(st, oracle, eps, rng, 0); err != nil {
		return nil, err
	}
	return &Sequential{
		st:          st,
		stride:      1,
		countsMoves: true,
		phi:         st.Potential(),
		step: func() (baseline.Result, error) {
			return baseline.EpsilonGreedyBestResponse(st, oracle, eps, rng, 1)
		},
	}, nil
}

// NewSequentialImitation wraps the sequential imitation dynamics of
// Section 3.2.
func NewSequentialImitation(st *game.State, pol baseline.Policy, minGain float64, rng *rand.Rand) (*Sequential, error) {
	if _, err := baseline.SequentialImitation(st, pol, minGain, rng, 0); err != nil {
		return nil, err
	}
	return &Sequential{
		st:          st,
		stride:      1,
		countsMoves: true,
		phi:         st.Potential(),
		step: func() (baseline.Result, error) {
			return baseline.SequentialImitation(st, pol, minGain, rng, 1)
		},
	}, nil
}

// NewGoldberg wraps Goldberg's randomized local search. One Step executes
// a chunk of selections (chunk ≤ 0 defaults to n/4, the harness
// convention), and Round counts selections including non-moving ones —
// the protocol's real cost.
func NewGoldberg(st *game.State, rng *rand.Rand, chunk int) (*Sequential, error) {
	if _, err := baseline.Goldberg(st, rng, 0); err != nil {
		return nil, err
	}
	if chunk <= 0 {
		chunk = st.Game().NumPlayers() / 4
		if chunk < 1 {
			chunk = 1
		}
	}
	return &Sequential{
		st:     st,
		stride: chunk,
		phi:    st.Potential(),
		step: func() (baseline.Result, error) {
			return baseline.Goldberg(st, rng, chunk)
		},
	}, nil
}

// State returns the live state the dynamics mutate.
func (s *Sequential) State() *game.State { return s.st }

// Round returns the number of activations executed.
func (s *Sequential) Round() int { return s.rounds }

// Moves returns the number of migrations applied, where tracked.
func (s *Sequential) Moves() int { return s.moves }

// Absorbed reports whether the dynamics reached their absorbing state (no
// improving move left).
func (s *Sequential) Absorbed() bool { return s.absorbed }

// Err returns the first error the underlying baseline reported, if any; a
// failed Sequential stops stepping.
func (s *Sequential) Err() error { return s.err }

// SetObserver implements Observable: the observer sees the RoundStats of
// every executed activation (absorbed or failed no-op Steps are not
// reported, matching the activation count). Repeated calls attach
// additional observers, like core.Engine.AddObserver.
func (s *Sequential) SetObserver(obs core.RoundObserver) {
	if obs != nil {
		s.obs = append(s.obs, obs)
	}
}

// Potential recomputes the exact Rosenthal potential of the current state.
func (s *Sequential) Potential() float64 { return s.st.Potential() }

// currentStats summarizes the current state attributed to the last
// executed activation.
func (s *Sequential) currentStats() RoundStats {
	return RoundStats{
		Round:      s.rounds - 1,
		Players:    s.st.Game().NumPlayers(),
		Potential:  s.phi,
		AvgLatency: s.st.AvgLatency(),
		MaxLatency: s.st.Makespan(),
	}
}

// Step executes one activation (Goldberg: one chunk). An absorbed or
// failed Sequential is a no-op.
func (s *Sequential) Step() RoundStats {
	if s.absorbed || s.err != nil {
		return s.currentStats()
	}
	res, err := s.step()
	if err != nil {
		// A failed chunk may have applied moves before the error; their
		// ΔΦ is not reported, so recompute.
		s.err = err
		s.phi = s.st.Potential()
		return s.currentStats()
	}
	s.phi += res.DeltaPotential
	if s.countsMoves && res.Converged {
		// The probe found no improving move: absorbed, no activation
		// counted (baseline.Result.Steps counts applied moves only).
		s.absorbed = true
		return s.currentStats()
	}
	s.rounds += s.stride
	stats := s.currentStats()
	if s.countsMoves {
		s.moves++
		stats.Movers = 1
	}
	for _, obs := range s.obs {
		obs.Observe(stats)
	}
	return stats
}

// Run executes activations until the stop condition fires, the dynamics
// absorb, or maxRounds activations have been executed. As with the
// concurrent engines the stop condition is probed once before the first
// activation; on absorption it is evaluated one final time to decide
// Converged (absorption alone does not imply an experiment's target
// equilibrium).
func (s *Sequential) Run(maxRounds int, stop StopCondition) RunResult {
	if stop != nil && stop(s, s.currentStats()) {
		return RunResult{Rounds: 0, Converged: true, TotalMoves: s.moves, Final: s.currentStats()}
	}
	if maxRounds <= 0 {
		return RunResult{Rounds: 0, Converged: false, TotalMoves: s.moves, Final: s.currentStats()}
	}
	start := s.rounds
	for s.rounds-start < maxRounds {
		last := s.Step()
		if s.err != nil || s.absorbed {
			break
		}
		if stop != nil && stop(s, last) {
			return RunResult{Rounds: s.rounds - start, Converged: true, TotalMoves: s.moves, Final: last}
		}
	}
	converged := false
	if s.absorbed && s.err == nil && stop != nil {
		converged = stop(s, s.currentStats())
	}
	return RunResult{Rounds: s.rounds - start, Converged: converged, TotalMoves: s.moves, Final: s.currentStats()}
}
