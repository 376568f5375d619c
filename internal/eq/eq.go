// Package eq implements the solution concepts of the paper: imitation
// stability, the (δ,ε,ν)-equilibrium of Definition 1, and (approximate)
// Nash equilibria via pluggable best-response oracles.
package eq

import (
	"errors"
	"fmt"

	"congame/internal/game"
	"congame/internal/graph"
)

// ErrInvalid reports an invalid equilibrium query.
var ErrInvalid = errors.New("eq: invalid")

// IsImitationStable reports whether no player could improve by more than ν
// by adopting another player's strategy: for all occupied strategies P, Q
// used by players of the same class, ℓ_P(x) ≤ ℓ_Q(x+1_Q−1_P) + ν.
//
// The check is quadratic in the support size (per class), not in the
// strategy space.
func IsImitationStable(v game.Snapshot, nu float64) bool {
	g := v.Game()
	if g.NumClasses() == 1 {
		return stableWithin(v, v.Support(), nu)
	}
	for c := 0; c < g.NumClasses(); c++ {
		support := classSupport(v, c)
		if !stableWithin(v, support, nu) {
			return false
		}
	}
	return true
}

func classSupport(v game.Snapshot, class int) []int {
	g := v.Game()
	seen := make(map[int]struct{})
	var support []int
	for _, p := range g.ClassMembers(class) {
		s := v.Assign(int(p))
		if _, ok := seen[s]; !ok {
			seen[s] = struct{}{}
			support = append(support, s)
		}
	}
	return support
}

func stableWithin(v game.Snapshot, support []int, nu float64) bool {
	if len(support) < 2 {
		return true
	}
	lat := make([]float64, len(support))
	for i, s := range support {
		lat[i] = v.StrategyLatency(s)
	}
	for i, p := range support {
		for j, q := range support {
			if i == j {
				continue
			}
			if lat[i] > v.SwitchLatency(p, q)+nu {
				return false
			}
		}
	}
	return true
}

// ApproxReport is the outcome of a (δ,ε,ν)-equilibrium check.
type ApproxReport struct {
	// AtEquilibrium reports whether the unsatisfied mass is at most δ·n.
	AtEquilibrium bool
	// ExpensiveFraction is the fraction of players on strategies with
	// ℓ_P > (1+ε)·L⁺_av + ν.
	ExpensiveFraction float64
	// CheapFraction is the fraction of players on strategies with
	// ℓ_P < (1−ε)·L_av − ν.
	CheapFraction float64
	// AvgLatency and AvgJoinLatency are the two reference averages.
	AvgLatency     float64
	AvgJoinLatency float64
}

// UnsatisfiedFraction returns the total fraction of players on expensive or
// cheap strategies.
func (r ApproxReport) UnsatisfiedFraction() float64 {
	return r.ExpensiveFraction + r.CheapFraction
}

// CheckApprox evaluates Definition 1: a state is at a (δ,ε,ν)-equilibrium
// iff at most a δ-fraction of the players use strategies whose latency
// deviates by more than an ε-fraction (plus ν) from the average: expensive
// strategies have ℓ_P > (1+ε)·L⁺_av + ν, cheap ones ℓ_P < (1−ε)·L_av − ν.
func CheckApprox(v game.Snapshot, delta, eps, nu float64) (ApproxReport, error) {
	if delta < 0 || delta > 1 {
		return ApproxReport{}, fmt.Errorf("%w: delta = %v, need [0,1]", ErrInvalid, delta)
	}
	if eps < 0 {
		return ApproxReport{}, fmt.Errorf("%w: eps = %v, need ≥ 0", ErrInvalid, eps)
	}
	if nu < 0 {
		return ApproxReport{}, fmt.Errorf("%w: nu = %v, need ≥ 0", ErrInvalid, nu)
	}
	lav := v.AvgLatency()
	lavPlus := v.AvgJoinLatency()
	upper := (1+eps)*lavPlus + nu
	lower := (1-eps)*lav - nu
	n := float64(v.Game().NumPlayers())
	var expensive, cheap int64
	for _, s := range v.Support() {
		l := v.StrategyLatency(s)
		switch {
		case l > upper:
			expensive += v.Count(s)
		case l < lower:
			cheap += v.Count(s)
		}
	}
	report := ApproxReport{
		ExpensiveFraction: float64(expensive) / n,
		CheapFraction:     float64(cheap) / n,
		AvgLatency:        lav,
		AvgJoinLatency:    lavPlus,
	}
	report.AtEquilibrium = float64(expensive+cheap) <= delta*n
	return report, nil
}

// Improvement is a strictly improving deviation found by an oracle.
type Improvement struct {
	// Strategy is the target as a resource list (it may be unregistered
	// for network oracles).
	Strategy []int
	// Gain is the latency decrease ℓ_P(x) − ℓ_Q(x+1_Q−1_P) > 0.
	Gain float64
}

// Oracle finds a (near-)best response for a player, or reports that none
// exists with gain above the threshold.
//
// BestResponse depends on the player only through its class
// (Game.ClassOf) and its current strategy (Snapshot.Assign): two players
// of one class on one strategy get the same answer. IsNash relies on
// this to ask once per (class, strategy) pair.
type Oracle interface {
	// BestResponse returns the best improving deviation for the player with
	// gain strictly greater than minGain, or ok=false if there is none.
	BestResponse(v game.Snapshot, player int, minGain float64) (Improvement, bool)
}

// IsNash reports whether no player has an improving deviation with gain
// above eps (eps = 0 checks exact Nash equilibria, up to tol for float
// noise). It scans the players in order and asks the oracle about the
// first player of each distinct (class, strategy) pair only, which the
// Oracle contract makes equivalent to asking about every player.
func IsNash(v game.Snapshot, oracle Oracle, eps float64) bool {
	g := v.Game()
	k := g.NumStrategies()
	asked := make([]bool, k*g.NumClasses())
	for p := range g.NumPlayers() {
		key := g.ClassOf(p)*k + v.Assign(p)
		if asked[key] {
			continue
		}
		asked[key] = true
		if _, ok := oracle.BestResponse(v, p, eps); ok {
			return false
		}
	}
	return true
}

// tol guards strict float comparisons in oracles: improvements smaller than
// this are considered noise.
const tol = 1e-12

// EnumOracle searches all registered strategies — exact for games whose
// strategy space was fully enumerated.
type EnumOracle struct{}

var _ Oracle = EnumOracle{}

// BestResponse implements Oracle.
func (EnumOracle) BestResponse(v game.Snapshot, player int, minGain float64) (Improvement, bool) {
	g := v.Game()
	from := v.Assign(player)
	lp := v.StrategyLatency(from)
	bestGain := minGain
	best := -1
	for s := 0; s < g.NumStrategies(); s++ {
		if s == from {
			continue
		}
		gain := lp - v.SwitchLatency(from, s)
		if gain > bestGain+tol {
			bestGain = gain
			best = s
		}
	}
	if best < 0 {
		return Improvement{}, false
	}
	return Improvement{Strategy: g.Strategy(best), Gain: bestGain}, true
}

// SingletonOracle searches all resources directly — exact for singleton
// games even when some resources have no registered strategy yet.
type SingletonOracle struct{}

var _ Oracle = SingletonOracle{}

// BestResponse implements Oracle.
func (SingletonOracle) BestResponse(v game.Snapshot, player int, minGain float64) (Improvement, bool) {
	g := v.Game()
	from := v.Assign(player)
	lp := v.StrategyLatency(from)
	fromRes := g.StrategyView(from)
	bestGain := minGain
	best := -1
	for e := 0; e < g.NumResources(); e++ {
		if len(fromRes) == 1 && int(fromRes[0]) == e {
			continue
		}
		after := v.ResourceJoinLatency(e)
		if gain := lp - after; gain > bestGain+tol {
			bestGain = gain
			best = e
		}
	}
	if best < 0 {
		return Improvement{}, false
	}
	return Improvement{Strategy: []int{best}, Gain: bestGain}, true
}

// RestrictedOracle searches only the strategies allowed for the player's
// class — the oracle for asymmetric games such as threshold games, where
// player classes have disjoint strategy sets.
type RestrictedOracle struct {
	// AllowedByClass maps each class to the registered strategy IDs its
	// players may use.
	AllowedByClass [][]int
}

var _ Oracle = RestrictedOracle{}

// BestResponse implements Oracle.
func (o RestrictedOracle) BestResponse(v game.Snapshot, player int, minGain float64) (Improvement, bool) {
	g := v.Game()
	class := g.ClassOf(player)
	if class >= len(o.AllowedByClass) {
		return Improvement{}, false
	}
	from := v.Assign(player)
	lp := v.StrategyLatency(from)
	bestGain := minGain
	best := -1
	for _, s := range o.AllowedByClass[class] {
		if s == from {
			continue
		}
		gain := lp - v.SwitchLatency(from, s)
		if gain > bestGain+tol {
			bestGain = gain
			best = s
		}
	}
	if best < 0 {
		return Improvement{}, false
	}
	return Improvement{Strategy: g.Strategy(best), Gain: bestGain}, true
}

// MultiNetworkOracle serves asymmetric multi-commodity network games: each
// player class routes between its own source–sink pair on the shared
// graph, and best responses are computed with the class's own terminals.
type MultiNetworkOracle struct {
	oracles []*NetworkOracle
}

var _ Oracle = (*MultiNetworkOracle)(nil)

// NewMultiNetworkOracle builds an oracle with one network (same underlying
// graph, different terminals) per player class.
func NewMultiNetworkOracle(nets []graph.Network) *MultiNetworkOracle {
	oracles := make([]*NetworkOracle, len(nets))
	for i, net := range nets {
		oracles[i] = NewNetworkOracle(net)
	}
	return &MultiNetworkOracle{oracles: oracles}
}

// BestResponse implements Oracle.
func (o *MultiNetworkOracle) BestResponse(v game.Snapshot, player int, minGain float64) (Improvement, bool) {
	class := v.Game().ClassOf(player)
	if class >= len(o.oracles) {
		return Improvement{}, false
	}
	return o.oracles[class].BestResponse(v, player, minGain)
}

// NetworkOracle computes best responses with Dijkstra on the underlying
// network: edge e weighs ℓ_e(x_e + 1 − [e ∈ P]). Exact for network games
// with arbitrary (non-negative-latency) path spaces.
type NetworkOracle struct {
	net graph.Network
}

var _ Oracle = (*NetworkOracle)(nil)

// NewNetworkOracle builds an oracle for a game whose resource i is edge i
// of the given network.
func NewNetworkOracle(net graph.Network) *NetworkOracle {
	return &NetworkOracle{net: net}
}

// BestResponse implements Oracle.
func (o *NetworkOracle) BestResponse(v game.Snapshot, player int, minGain float64) (Improvement, bool) {
	g := v.Game()
	from := v.Assign(player)
	lp := v.StrategyLatency(from)
	onPath := make(map[int]bool, 8)
	for _, e := range g.StrategyView(from) {
		onPath[int(e)] = true
	}
	path, dist, err := o.net.G.ShortestPath(o.net.S, o.net.T, func(id int) float64 {
		if onPath[id] {
			return v.ResourceLatency(id)
		}
		return v.ResourceJoinLatency(id)
	})
	if err != nil {
		return Improvement{}, false
	}
	gain := lp - dist
	if gain <= minGain+tol {
		return Improvement{}, false
	}
	return Improvement{Strategy: path, Gain: gain}, true
}
