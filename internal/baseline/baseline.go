// Package baseline implements the sequential dynamics the paper compares
// against: Rosenthal-style (best-/better-)response dynamics, the sequential
// imitation dynamics of Section 3.2 (including an exact longest-sequence
// search for the Theorem 6 lower bound), Goldberg's randomized local search,
// and ε-greedy better responses.
package baseline

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"congame/internal/eq"
	"congame/internal/game"
)

// ErrInvalid reports an invalid baseline configuration.
var ErrInvalid = errors.New("baseline: invalid")

// Policy selects which improving move a sequential dynamic applies when
// several are available.
type Policy int

// Policies for sequential move selection.
const (
	// PolicyRandom picks a uniformly random improving move.
	PolicyRandom Policy = iota + 1
	// PolicyBestGain picks the move with maximum latency gain.
	PolicyBestGain
	// PolicyMinGain picks the move with minimum positive gain (the
	// adversarial slow schedule).
	PolicyMinGain
	// PolicyFirst picks the first improving move in (player, strategy)
	// order (deterministic).
	PolicyFirst
)

func (p Policy) String() string {
	switch p {
	case PolicyRandom:
		return "random"
	case PolicyBestGain:
		return "best-gain"
	case PolicyMinGain:
		return "min-gain"
	case PolicyFirst:
		return "first"
	default:
		return "policy(" + strconv.Itoa(int(p)) + ")"
	}
}

func (p Policy) valid() bool { return p >= PolicyRandom && p <= PolicyFirst }

// Result summarizes a sequential run.
type Result struct {
	// Steps is the number of single-player moves applied.
	Steps int
	// Converged reports whether the dynamics reached their absorbing state
	// within the step budget.
	Converged bool
	// DeltaPotential is the summed exact ΔΦ that State.Move returned for
	// the moves applied.
	DeltaPotential float64
}

// BestResponse runs sequential best-response dynamics: in each step one
// player with an improving deviation (found by the oracle) moves to its
// best response. It stops at a Nash equilibrium (w.r.t. the oracle) or
// after maxSteps.
func BestResponse(st *game.State, oracle eq.Oracle, pol Policy, rng *rand.Rand, maxSteps int) (Result, error) {
	if !pol.valid() {
		return Result{}, fmt.Errorf("%w: policy %v", ErrInvalid, pol)
	}
	if oracle == nil {
		return Result{}, fmt.Errorf("%w: nil oracle", ErrInvalid)
	}
	if pol == PolicyRandom && rng == nil {
		return Result{}, fmt.Errorf("%w: random policy needs rng", ErrInvalid)
	}
	n := st.Game().NumPlayers()
	view := new(game.RoundView) // filled incrementally by Sync at each step
	var dphi float64
	for step := 0; step < maxSteps; step++ {
		view.Sync(st)
		type cand struct {
			player int
			imp    eq.Improvement
		}
		var candidates []cand
		for p := 0; p < n; p++ {
			if imp, ok := oracle.BestResponse(view, p, 0); ok {
				candidates = append(candidates, cand{player: p, imp: imp})
				if pol == PolicyFirst {
					break
				}
			}
		}
		if len(candidates) == 0 {
			return Result{Steps: step, Converged: true, DeltaPotential: dphi}, nil
		}
		chosen := candidates[0]
		switch pol {
		case PolicyRandom:
			chosen = candidates[rng.Intn(len(candidates))]
		case PolicyBestGain:
			for _, c := range candidates[1:] {
				if c.imp.Gain > chosen.imp.Gain {
					chosen = c
				}
			}
		case PolicyMinGain:
			for _, c := range candidates[1:] {
				if c.imp.Gain < chosen.imp.Gain {
					chosen = c
				}
			}
		}
		id, _, err := st.Game().RegisterStrategy(chosen.imp.Strategy)
		if err != nil {
			return Result{}, fmt.Errorf("baseline: register best response: %w", err)
		}
		st.EnsureStrategies()
		dphi += st.Move(chosen.player, id)
	}
	return Result{Steps: maxSteps, Converged: false, DeltaPotential: dphi}, nil
}

// EpsilonGreedyBestResponse runs sequential dynamics where a player moves
// only if its latency decreases by a relative factor of at least 1+eps
// (the ε-greedy players of Fabrikant et al. / Chien–Sinclair discussed in
// the related work). It stops when no such move exists.
func EpsilonGreedyBestResponse(st *game.State, oracle eq.Oracle, eps float64, rng *rand.Rand, maxSteps int) (Result, error) {
	if eps < 0 {
		return Result{}, fmt.Errorf("%w: eps = %v", ErrInvalid, eps)
	}
	if oracle == nil {
		return Result{}, fmt.Errorf("%w: nil oracle", ErrInvalid)
	}
	if rng == nil {
		return Result{}, fmt.Errorf("%w: nil rng", ErrInvalid)
	}
	n := st.Game().NumPlayers()
	view := new(game.RoundView) // filled incrementally by Sync at each step
	var dphi float64
	for step := 0; step < maxSteps; step++ {
		view.Sync(st)
		type cand struct {
			player int
			imp    eq.Improvement
		}
		var candidates []cand
		for p := 0; p < n; p++ {
			lp := view.PlayerLatency(p)
			// ℓ_P > (1+ε)·ℓ_Q' ⇔ gain > ℓ_P·ε/(1+ε).
			minGain := lp * eps / (1 + eps)
			if imp, ok := oracle.BestResponse(view, p, minGain); ok {
				candidates = append(candidates, cand{player: p, imp: imp})
			}
		}
		if len(candidates) == 0 {
			return Result{Steps: step, Converged: true, DeltaPotential: dphi}, nil
		}
		chosen := candidates[rng.Intn(len(candidates))]
		id, _, err := st.Game().RegisterStrategy(chosen.imp.Strategy)
		if err != nil {
			return Result{}, fmt.Errorf("baseline: register response: %w", err)
		}
		st.EnsureStrategies()
		dphi += st.Move(chosen.player, id)
	}
	return Result{Steps: maxSteps, Converged: false, DeltaPotential: dphi}, nil
}

// imitationMove is a single improving imitation step: player adopts the
// strategy of a same-class player.
type imitationMove struct {
	player int
	to     int
	gain   float64
}

// improvingImitations lists all improving imitation moves (gain > minGain)
// available in the snapshot, respecting player classes. Callers on a hot
// path pass a RoundView so every gain is a table lookup; the memoized DFS
// passes its constantly mutating work state directly.
func improvingImitations(v game.Snapshot, minGain float64) []imitationMove {
	g := v.Game()
	var moves []imitationMove
	for c := 0; c < g.NumClasses(); c++ {
		members := g.ClassMembers(c)
		// Occupied strategies within the class.
		occupied := make(map[int]struct{})
		for _, p := range members {
			occupied[v.Assign(int(p))] = struct{}{}
		}
		targets := make([]int, 0, len(occupied))
		for s := range occupied {
			targets = append(targets, s)
		}
		sort.Ints(targets)
		for _, p := range members {
			from := v.Assign(int(p))
			for _, to := range targets {
				if to == from {
					continue
				}
				if gain := v.Gain(from, to); gain > minGain {
					moves = append(moves, imitationMove{player: int(p), to: to, gain: gain})
				}
			}
		}
	}
	return moves
}

// SequentialImitation runs the sequential imitation dynamics of Section 3.2:
// in each step a single player adopts another (same-class) player's strategy
// if that strictly improves its latency. minGain = 0 reproduces the
// Theorem 6 model ("regardless of the anticipated latency gain"); minGain =
// ν reproduces the protocol's threshold. It stops at an imitation-stable
// state or after maxSteps.
func SequentialImitation(st *game.State, pol Policy, minGain float64, rng *rand.Rand, maxSteps int) (Result, error) {
	if !pol.valid() {
		return Result{}, fmt.Errorf("%w: policy %v", ErrInvalid, pol)
	}
	if pol == PolicyRandom && rng == nil {
		return Result{}, fmt.Errorf("%w: random policy needs rng", ErrInvalid)
	}
	if minGain < 0 {
		return Result{}, fmt.Errorf("%w: minGain = %v", ErrInvalid, minGain)
	}
	view := new(game.RoundView) // filled incrementally by Sync at each step
	var dphi float64
	for step := 0; step < maxSteps; step++ {
		moves := improvingImitations(view.Sync(st), minGain)
		if len(moves) == 0 {
			return Result{Steps: step, Converged: true, DeltaPotential: dphi}, nil
		}
		chosen := moves[0]
		switch pol {
		case PolicyRandom:
			chosen = moves[rng.Intn(len(moves))]
		case PolicyBestGain:
			for _, m := range moves[1:] {
				if m.gain > chosen.gain {
					chosen = m
				}
			}
		case PolicyMinGain:
			for _, m := range moves[1:] {
				if m.gain < chosen.gain {
					chosen = m
				}
			}
		}
		dphi += st.Move(chosen.player, chosen.to)
	}
	return Result{Steps: maxSteps, Converged: false, DeltaPotential: dphi}, nil
}

// LongestResult is the outcome of the exact longest-sequence search.
type LongestResult struct {
	// Length is the longest sequence of improving imitation moves found.
	Length int
	// Complete reports whether the search exhausted the reachable state
	// space (false if the state cap was hit, making Length a lower bound).
	Complete bool
	// StatesVisited counts distinct canonical states explored.
	StatesVisited int
}

// LongestImitationSequence computes, by memoized DFS, the length of the
// longest sequence of single-player improving imitation moves starting from
// the given state — the quantity Theorem 6 lower-bounds. Because the
// Rosenthal potential strictly decreases along improving moves, the state
// graph is acyclic and the longest path is well defined. Players within a
// class are interchangeable, so states are canonicalized to per-class
// strategy counts. maxStates caps the explored states (0 = 1,000,000).
func LongestImitationSequence(st *game.State, maxStates int) (LongestResult, error) {
	if maxStates <= 0 {
		maxStates = 1_000_000
	}
	work := st.Clone()
	memo := make(map[string]int)
	capped := false

	var dfs func() int
	dfs = func() int {
		key := canonicalKey(work)
		if v, ok := memo[key]; ok {
			return v
		}
		if len(memo) >= maxStates {
			capped = true
			return 0
		}
		memo[key] = 0 // reserve (also guards against bugs creating cycles)
		best := 0
		for _, m := range improvingImitations(work, 0) {
			from := work.Assign(m.player)
			work.Move(m.player, m.to)
			if v := 1 + dfs(); v > best {
				best = v
			}
			work.Move(m.player, from)
		}
		memo[key] = best
		return best
	}
	length := dfs()
	return LongestResult{Length: length, Complete: !capped, StatesVisited: len(memo)}, nil
}

func canonicalKey(st *game.State) string {
	g := st.Game()
	var b strings.Builder
	for c := 0; c < g.NumClasses(); c++ {
		if c > 0 {
			b.WriteByte('|')
		}
		counts := make(map[int]int)
		for _, p := range g.ClassMembers(c) {
			counts[st.Assign(int(p))]++
		}
		keys := make([]int, 0, len(counts))
		for s := range counts {
			keys = append(keys, s)
		}
		sort.Ints(keys)
		for i, s := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(s))
			b.WriteByte(':')
			b.WriteString(strconv.Itoa(counts[s]))
		}
	}
	return b.String()
}

// Goldberg runs the randomized sequential protocol of Goldberg (PODC 2004)
// on a singleton game: in each step a uniformly random player samples a
// uniformly random resource and migrates iff that strictly improves its
// latency. It stops once the state is a Nash equilibrium, checking every
// `n` selections to amortize the check. Steps counts selections (including
// non-moving ones).
func Goldberg(st *game.State, rng *rand.Rand, maxSteps int) (Result, error) {
	if rng == nil {
		return Result{}, fmt.Errorf("%w: nil rng", ErrInvalid)
	}
	g := st.Game()
	if !g.IsSingleton() {
		return Result{}, fmt.Errorf("%w: Goldberg protocol requires a singleton game", ErrInvalid)
	}
	n := g.NumPlayers()
	oracle := eq.SingletonOracle{}
	view := new(game.RoundView) // filled incrementally by Sync at each step
	var dphi float64
	for step := 0; step < maxSteps; step++ {
		if step%n == 0 && eq.IsNash(view.Sync(st), oracle, 0) {
			return Result{Steps: step, Converged: true, DeltaPotential: dphi}, nil
		}
		p := rng.Intn(n)
		e := rng.Intn(g.NumResources())
		from := st.Assign(p)
		res := []int{e}
		id, isNew, err := g.RegisterStrategy(res)
		if err != nil {
			return Result{}, fmt.Errorf("baseline: register resource strategy: %w", err)
		}
		if isNew {
			st.EnsureStrategies()
		}
		if id == from {
			continue
		}
		if st.Gain(from, id) > 0 {
			dphi += st.Move(p, id)
		}
	}
	if eq.IsNash(view.Sync(st), eq.SingletonOracle{}, 0) {
		return Result{Steps: maxSteps, Converged: true, DeltaPotential: dphi}, nil
	}
	return Result{Steps: maxSteps, Converged: false, DeltaPotential: dphi}, nil
}
