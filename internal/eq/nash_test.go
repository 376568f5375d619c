package eq_test

import (
	"math/rand"
	"testing"

	"congame/internal/baseline"
	"congame/internal/eq"
	"congame/internal/game"
	"congame/internal/latency"
	"congame/internal/prng"
	"congame/internal/threshold"
	"congame/internal/workload"
)

// nashPerPlayer is the reference IsNash: it asks the oracle about every
// player.
func nashPerPlayer(v game.Snapshot, oracle eq.Oracle, eps float64) bool {
	for p := range v.Game().NumPlayers() {
		if _, ok := oracle.BestResponse(v, p, eps); ok {
			return false
		}
	}
	return true
}

// classStrategy is the key IsNash asks the oracle once per.
type classStrategy struct{ class, strategy int }

// countingOracle counts BestResponse calls per (class, strategy).
type countingOracle struct {
	eq.Oracle
	calls map[classStrategy]int
}

func (o *countingOracle) BestResponse(v game.Snapshot, player int, minGain float64) (eq.Improvement, bool) {
	o.calls[classStrategy{v.Game().ClassOf(player), v.Assign(player)}]++
	return o.Oracle.BestResponse(v, player, minGain)
}

// nashCase is one game with its exact oracle and the strategy set of
// each player class.
type nashCase struct {
	name   string
	g      *game.Game
	oracle eq.Oracle
	sets   [][]int
}

// allStrategies is the one strategy set of a symmetric game.
func allStrategies(g *game.Game) [][]int {
	set := make([]int, g.NumStrategies())
	for s := range set {
		set[s] = s
	}
	return [][]int{set}
}

// draw picks a strategy uniformly from player p's class set.
func (c nashCase) draw(p int, rng *rand.Rand) int {
	set := c.sets[c.g.ClassOf(p)]
	return set[rng.Intn(len(set))]
}

// randomState draws every player's strategy from its class set.
func (c nashCase) randomState(rng *rand.Rand) (*game.State, error) {
	assign := make([]int32, c.g.NumPlayers())
	for p := range assign {
		assign[p] = int32(c.draw(p, rng))
	}
	return game.NewStateFromAssignment(c.g, assign)
}

// nashState runs sequential best response from a random state to a Nash
// equilibrium.
func (c nashCase) nashState(t *testing.T, rng *rand.Rand) *game.State {
	t.Helper()
	st, err := c.randomState(rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := baseline.BestResponse(st, c.oracle, baseline.PolicyFirst, nil, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("best response did not reach a Nash equilibrium")
	}
	return st
}

func nashCases(t *testing.T) []nashCase {
	t.Helper()
	rng := prng.New(33)
	var cases []nashCase

	braess, err := workload.Braess(60)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, nashCase{"braess/network", braess.Game, braess.Oracle, allStrategies(braess.Game)})

	single, err := workload.LinearSingletons(6, 90, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, nashCase{"linear/singleton", single.Game, single.Oracle, allStrategies(single.Game)})

	// Two classes route between their own terminals over shared middle
	// edges; class 0 owns the first len(paths0) strategies.
	multi, err := workload.TwoCommodity(3, 40, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	paths0, err := multi.Net.G.EnumeratePaths(multi.Net.S, multi.Net.T, 0)
	if err != nil {
		t.Fatal(err)
	}
	multiSets := [][]int{{}, {}}
	for s := range multi.Game.NumStrategies() {
		if s < len(paths0) {
			multiSets[0] = append(multiSets[0], s)
		} else {
			multiSets[1] = append(multiSets[1], s)
		}
	}
	cases = append(cases, nashCase{"two-commodity/multi-network", multi.Game, multi.Oracle, multiSets})

	w, err := threshold.RandomWeights(5, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	thr, err := threshold.BuildTripled(w)
	if err != nil {
		t.Fatal(err)
	}
	thrSets := make([][]int, w.K())
	for i := range thrSets {
		thrSets[i] = []int{thr.InStrategy[i], thr.OutStrategy[i]}
	}
	cases = append(cases, nashCase{"threshold/restricted", thr.Game, eq.RestrictedOracle{AllowedByClass: thrSets}, thrSets})

	// Three classes on six links with overlapping allowed sets: players of
	// different classes share a strategy but not their alternatives, so
	// the answer for one class says nothing about another.
	resources := make([]game.Resource, 6)
	strategies := make([][]int, len(resources))
	for e := range resources {
		f, err := latency.NewAffine(0.5+rng.Float64()*2, rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		resources[e] = game.Resource{Latency: f}
		strategies[e] = []int{e}
	}
	const players = 45
	classOf := make([]int, players)
	for p := range classOf {
		classOf[p] = p % 3
	}
	overlap, err := game.New(game.Config{Resources: resources, Players: players, Strategies: strategies, ClassOf: classOf})
	if err != nil {
		t.Fatal(err)
	}
	overlapSets := [][]int{{0, 1, 2}, {0, 2, 4, 5}, {1, 2, 3}}
	cases = append(cases, nashCase{"overlapping/restricted", overlap, eq.RestrictedOracle{AllowedByClass: overlapSets}, overlapSets})
	return cases
}

// TestIsNashMatchesPerPlayerCheck: IsNash agrees with asking the oracle
// about every player, at several eps, on random states, on Nash
// equilibria that sequential best response reaches, and on equilibria
// where one player then moved. In the last, the mover often shares its
// new strategy with an earlier player of another class that cannot
// improve, so a scan keyed by strategy alone misses the mover.
func TestIsNashMatchesPerPlayerCheck(t *testing.T) {
	rng := prng.New(34)
	for _, c := range nashCases(t) {
		t.Run(c.name, func(t *testing.T) {
			var atNash, offNash int
			for trial := range 60 {
				var st *game.State
				switch trial % 3 {
				case 0:
					var err error
					if st, err = c.randomState(rng); err != nil {
						t.Fatal(err)
					}
				case 1:
					st = c.nashState(t, rng)
				case 2:
					st = c.nashState(t, rng)
					p := rng.Intn(c.g.NumPlayers())
					st.Move(p, c.draw(p, rng))
				}
				for _, eps := range []float64{0, 0.05, 0.5} {
					want := nashPerPlayer(st, c.oracle, eps)
					if got := eq.IsNash(st, c.oracle, eps); got != want {
						t.Fatalf("trial %d eps %v: IsNash = %v, per-player check = %v", trial, eps, got, want)
					}
					if eps == 0 && want {
						atNash++
					} else if eps == 0 {
						offNash++
					}
				}
			}
			if atNash == 0 || offNash == 0 {
				t.Errorf("states at Nash: %d, off Nash: %d; want both", atNash, offNash)
			}
		})
	}
}

// TestIsNashAsksOncePerClassStrategy: one IsNash call asks the oracle at
// most once per distinct (class, strategy) pair, however many players
// share it, and at a Nash equilibrium exactly once per occupied pair.
func TestIsNashAsksOncePerClassStrategy(t *testing.T) {
	rng := prng.New(35)
	for _, c := range nashCases(t) {
		t.Run(c.name, func(t *testing.T) {
			for trial := range 20 {
				st := c.nashState(t, rng)
				if trial%2 == 0 {
					var err error
					if st, err = c.randomState(rng); err != nil {
						t.Fatal(err)
					}
				}
				counter := &countingOracle{Oracle: c.oracle, calls: map[classStrategy]int{}}
				nash := eq.IsNash(st, counter, 0)
				occupied := map[classStrategy]bool{}
				for p := range c.g.NumPlayers() {
					occupied[classStrategy{c.g.ClassOf(p), st.Assign(p)}] = true
				}
				for key, n := range counter.calls {
					if n > 1 {
						t.Fatalf("trial %d: %d calls for class %d strategy %d, want at most 1", trial, n, key.class, key.strategy)
					}
				}
				if nash && len(counter.calls) != len(occupied) {
					t.Errorf("trial %d: Nash verdict after %d oracle calls, want one per occupied (class, strategy) pair: %d",
						trial, len(counter.calls), len(occupied))
				}
			}
		})
	}
}
