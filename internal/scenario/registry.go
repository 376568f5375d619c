package scenario

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"congame/internal/baseline"
	"congame/internal/core"
	"congame/internal/dynamics"
	"congame/internal/workload"
)

// Family builds instances of one named workload family from declarative
// params. Build receives the replication's derived rng (see the package
// seed contract); families that need no randomness may ignore it.
type Family struct {
	// Name is the registry key.
	Name string
	// Required and Optional declare the accepted param names; anything
	// else in a spec is rejected at validation time, and required params
	// must be declared or swept.
	Required []string
	Optional []string
	// Ints names the params Build reads as integers; validation rejects
	// fractional declared or swept values for them so a table row is
	// never labeled with a value the simulation silently truncated.
	Ints []string
	// Build constructs the instance.
	Build func(p Params, rng *rand.Rand) (*workload.Instance, error)
}

func (f Family) params() []string {
	return append(append([]string{}, f.Required...), f.Optional...)
}

// Built is a constructed dynamics plus the context stop conditions need.
type Built struct {
	// Dyn is the runnable dynamics.
	Dyn dynamics.Dynamics
	// Nu is the minimum-gain threshold in effect (0 when the kind has
	// none); imitation-stability and (δ,ε,ν)-equilibrium stops read it.
	Nu float64
	// Inst is the instance the dynamics run on.
	Inst *workload.Instance
}

// Group labels for DynKind.Group, in the order listings print them.
const (
	GroupEngine     = "concurrent engine"
	GroupSequential = "sequential baselines"
	GroupFluid      = "mean-field fluid"
)

// DynKind builds one named dynamics family over an instance.
type DynKind struct {
	// Name is the registry key.
	Name string
	// Desc is a one-line human description for listings (cmd/sweep -list).
	Desc string
	// Group is the listing bucket the kind prints under; one of the Group*
	// constants.
	Group string
	// Params declares the accepted param names.
	Params []string
	// Required names the params that must be declared or swept; validated
	// at Load time like Family.Required.
	Required []string
	// Ints names the params Build reads as integers (see Family.Ints).
	Ints []string
	// Build wires the instance into the dynamics. seed is the
	// replication's derived dynamics seed; workers the engine worker
	// count (≤ 0 = GOMAXPROCS) — concurrent-engine trajectories are
	// worker-invariant, sequential kinds ignore it.
	Build func(inst *workload.Instance, p Params, seed uint64, workers int) (Built, error)
}

// stopKind builds one named stop condition.
type stopKind struct {
	Name   string
	Params []string
	// Required names the params that must be declared or swept.
	Required []string
	// Ints names the params Build reads as integers (see Family.Ints).
	Ints []string
	// Build may return a nil condition ("none"): the run then uses the
	// fixed round budget. Conditions may be stateful; Build runs once per
	// replication.
	Build func(p Params, b Built) (dynamics.StopCondition, error)
}

// Metric computes one aggregate column for a finished cell.
type Metric struct {
	// Name is the registry key and column header.
	Name string
	// Value returns the cell's column value: a float64 (rendered with 4
	// significant digits, like the experiment tables) or a string.
	Value func(c *CellResult) (any, error)
}

var (
	families  = map[string]Family{}
	dynKinds  = map[string]DynKind{}
	stopKinds = map[string]stopKind{}
	metrics   = map[string]Metric{}
)

// RegisterFamily adds an instance family to the registry; registering a
// duplicate or empty name panics (a programming error, not spec input).
func RegisterFamily(f Family) {
	if f.Name == "" || f.Build == nil {
		panic("scenario: RegisterFamily needs a name and a builder")
	}
	if _, dup := families[f.Name]; dup {
		panic("scenario: duplicate family " + f.Name)
	}
	families[f.Name] = f
}

// RegisterDynamics adds a dynamics kind to the registry.
func RegisterDynamics(k DynKind) {
	if k.Name == "" || k.Build == nil {
		panic("scenario: RegisterDynamics needs a name and a builder")
	}
	if _, dup := dynKinds[k.Name]; dup {
		panic("scenario: duplicate dynamics kind " + k.Name)
	}
	dynKinds[k.Name] = k
}

// Families returns the registered instance-family names, sorted.
func Families() []string { return sortedKeys(families) }

// DynamicsKinds returns the registered dynamics names, sorted.
func DynamicsKinds() []string { return sortedKeys(dynKinds) }

// DynInfo describes one dynamics kind for listings.
type DynInfo struct{ Name, Desc string }

// DynGroup is one listing bucket of dynamics kinds.
type DynGroup struct {
	Group string
	Kinds []DynInfo
}

// dynGroupOrder fixes the display order of the listing buckets.
var dynGroupOrder = []string{GroupEngine, GroupSequential, GroupFluid}

// DynamicsInfo returns the registered dynamics kinds grouped for display:
// buckets in dynGroupOrder (any unforeseen bucket appended alphabetically),
// kinds sorted by name within each bucket.
func DynamicsInfo() []DynGroup {
	byGroup := map[string][]DynInfo{}
	for _, name := range DynamicsKinds() {
		k := dynKinds[name]
		g := k.Group
		if g == "" {
			g = "other"
		}
		byGroup[g] = append(byGroup[g], DynInfo{Name: k.Name, Desc: k.Desc})
	}
	var out []DynGroup
	seen := map[string]bool{}
	for _, g := range dynGroupOrder {
		if kinds, ok := byGroup[g]; ok {
			out = append(out, DynGroup{Group: g, Kinds: kinds})
			seen[g] = true
		}
	}
	for _, g := range sortedKeys(byGroup) {
		if !seen[g] {
			out = append(out, DynGroup{Group: g, Kinds: byGroup[g]})
		}
	}
	return out
}

// StopKinds returns the registered stop-condition names, sorted.
func StopKinds() []string { return sortedKeys(stopKinds) }

// MetricNames returns the registered metric names, sorted.
func MetricNames() []string { return sortedKeys(metrics) }

func sortedKeys[V any](m map[string]V) []string {
	return slices.Sorted(maps.Keys(m))
}

// need returns the param or an actionable error naming the component.
func need(p Params, what, name string) (float64, error) {
	v, ok := p[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s requires param %q", ErrInvalid, what, name)
	}
	return v, nil
}

func init() {
	registerFamilies()
	registerDynamics()
	registerStops()
	registerMetrics()
	registerFluid()
}

// registerFamilies maps every internal/workload constructor; param names
// mirror the constructors' argument names.
func registerFamilies() {
	RegisterFamily(Family{
		Name:     "two-link",
		Required: []string{"n", "degree", "seedOnPoly"},
		Ints:     []string{"n", "seedOnPoly"},
		Build: func(p Params, _ *rand.Rand) (*workload.Instance, error) {
			return workload.TwoLink(p.Int("n", 0), p.Float("degree", 0), p.Int("seedOnPoly", 0))
		},
	})
	RegisterFamily(Family{
		Name:     "uniform-singletons",
		Required: []string{"m", "n"},
		Ints:     []string{"m", "n"},
		Build: func(p Params, rng *rand.Rand) (*workload.Instance, error) {
			return workload.UniformSingletons(p.Int("m", 0), p.Int("n", 0), rng)
		},
	})
	RegisterFamily(Family{
		Name:     "linear-singletons",
		Required: []string{"m", "n", "maxSlope"},
		Ints:     []string{"m", "n"},
		Build: func(p Params, rng *rand.Rand) (*workload.Instance, error) {
			return workload.LinearSingletons(p.Int("m", 0), p.Int("n", 0), p.Float("maxSlope", 0), rng)
		},
	})
	RegisterFamily(Family{
		Name:     "monomial-singletons",
		Required: []string{"m", "n", "degree", "maxCoeff"},
		Ints:     []string{"m", "n"},
		Build: func(p Params, rng *rand.Rand) (*workload.Instance, error) {
			return workload.MonomialSingletons(p.Int("m", 0), p.Int("n", 0), p.Float("degree", 0), p.Float("maxCoeff", 0), rng)
		},
	})
	RegisterFamily(Family{
		Name:     "zero-offset-singletons",
		Required: []string{"m", "n", "degree", "maxCoeff"},
		Ints:     []string{"m", "n"},
		Build: func(p Params, rng *rand.Rand) (*workload.Instance, error) {
			return workload.ZeroOffsetSingletons(p.Int("m", 0), p.Int("n", 0), p.Float("degree", 0), p.Float("maxCoeff", 0), rng)
		},
	})
	RegisterFamily(Family{
		Name:     "last-agent",
		Required: []string{"n"},
		Ints:     []string{"n"},
		Build: func(p Params, _ *rand.Rand) (*workload.Instance, error) {
			return workload.LastAgent(p.Int("n", 0))
		},
	})
	RegisterFamily(Family{
		Name:     "poly-network",
		Required: []string{"layers", "width", "n", "degree", "initPaths"},
		Ints:     []string{"layers", "width", "n", "initPaths"},
		Build: func(p Params, rng *rand.Rand) (*workload.Instance, error) {
			return workload.PolyNetwork(p.Int("layers", 0), p.Int("width", 0), p.Int("n", 0), p.Float("degree", 0), p.Int("initPaths", 0), rng)
		},
	})
	RegisterFamily(Family{
		Name:     "braess",
		Required: []string{"n"},
		Ints:     []string{"n"},
		Build: func(p Params, _ *rand.Rand) (*workload.Instance, error) {
			return workload.Braess(p.Int("n", 0))
		},
	})
	RegisterFamily(Family{
		Name:     "two-commodity",
		Required: []string{"width", "n", "maxSlope"},
		Ints:     []string{"width", "n"},
		Build: func(p Params, rng *rand.Rand) (*workload.Instance, error) {
			return workload.TwoCommodity(p.Int("width", 0), p.Int("n", 0), p.Float("maxSlope", 0), rng)
		},
	})
	RegisterFamily(Family{
		Name:     "heavy-traffic",
		Required: []string{"n", "m"},
		Ints:     []string{"n", "m"},
		Build: func(p Params, rng *rand.Rand) (*workload.Instance, error) {
			return workload.HeavyTraffic(p.Int("n", 0), p.Int("m", 0), rng)
		},
	})
}

// imitationConfig maps the shared imitation params onto the protocol
// config.
func imitationConfig(p Params) core.ImitationConfig {
	return core.ImitationConfig{
		Lambda:    p.Float("lambda", 0),
		Nu:        p.Float("nu", 0),
		DisableNu: p.Bool("disableNu", false),
	}
}

// newEngineDynamics wires a protocol into a concurrent engine behind the
// unified interface.
func newEngineDynamics(inst *workload.Instance, proto core.Protocol, seed uint64, workers int) (dynamics.Dynamics, error) {
	e, err := core.NewEngine(inst.State, proto, core.WithSeed(seed), core.WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	return dynamics.FromEngine(e), nil
}

// sampler resolves the exploration sampler choice: sampler=0 (default)
// samples registered strategies, sampler=1 samples the network's full
// path space (requires a network instance).
func sampler(inst *workload.Instance, p Params, what string) (core.Sampler, error) {
	switch p.Int("sampler", 0) {
	case 0:
		return core.NewRegisteredSampler(inst.Game), nil
	case 1:
		if inst.Net == nil {
			return nil, fmt.Errorf("%w: %s: sampler=1 (network paths) needs a network instance", ErrInvalid, what)
		}
		return core.NewNetworkSampler(*inst.Net)
	default:
		return nil, fmt.Errorf("%w: %s: sampler must be 0 (registered) or 1 (network paths)", ErrInvalid, what)
	}
}

// policy maps the numeric policy codes to baseline.Policy (1 = random,
// 2 = best-gain, 3 = min-gain, matching the baseline constants).
func policy(p Params, def baseline.Policy) (baseline.Policy, error) {
	code := p.Int("policy", int(def))
	switch pol := baseline.Policy(code); pol {
	case baseline.PolicyRandom, baseline.PolicyBestGain, baseline.PolicyMinGain:
		return pol, nil
	default:
		return 0, fmt.Errorf("%w: policy %d (valid: 1 = random, 2 = best-gain, 3 = min-gain)", ErrInvalid, code)
	}
}

func registerDynamics() {
	RegisterDynamics(DynKind{
		Name:   "imitation",
		Desc:   "the paper's concurrent IMITATION PROTOCOL (λ-damped, ν-thresholded)",
		Group:  GroupEngine,
		Params: []string{"lambda", "nu", "disableNu"},
		Ints:   []string{"disableNu"},
		Build: func(inst *workload.Instance, p Params, seed uint64, workers int) (Built, error) {
			im, err := core.NewImitation(inst.Game, imitationConfig(p))
			if err != nil {
				return Built{}, err
			}
			d, err := newEngineDynamics(inst, im, seed, workers)
			if err != nil {
				return Built{}, err
			}
			return Built{Dyn: d, Nu: im.Nu(), Inst: inst}, nil
		},
	})
	RegisterDynamics(DynKind{
		Name:   "imitation-undamped",
		Desc:   "imitation without the λ damping factor (oscillation probe)",
		Group:  GroupEngine,
		Params: []string{"lambda", "nu"},
		Build: func(inst *workload.Instance, p Params, seed uint64, workers int) (Built, error) {
			proto, err := core.NewUndampedImitation(inst.Game, p.Float("lambda", 0), p.Float("nu", 0))
			if err != nil {
				return Built{}, err
			}
			d, err := newEngineDynamics(inst, proto, seed, workers)
			if err != nil {
				return Built{}, err
			}
			return Built{Dyn: d, Nu: p.Float("nu", 0), Inst: inst}, nil
		},
	})
	RegisterDynamics(DynKind{
		Name:   "imitation-virtual",
		Desc:   "imitation deciding against virtual post-migration latencies",
		Group:  GroupEngine,
		Params: []string{"lambda", "nu", "disableNu"},
		Ints:   []string{"disableNu"},
		Build: func(inst *workload.Instance, p Params, seed uint64, workers int) (Built, error) {
			proto, err := core.NewVirtualImitation(inst.Game, imitationConfig(p))
			if err != nil {
				return Built{}, err
			}
			d, err := newEngineDynamics(inst, proto, seed, workers)
			if err != nil {
				return Built{}, err
			}
			return Built{Dyn: d, Nu: proto.Nu(), Inst: inst}, nil
		},
	})
	RegisterDynamics(DynKind{
		Name:   "exploration",
		Desc:   "λ-damped exploration of sampled alternative strategies",
		Group:  GroupEngine,
		Params: []string{"lambda", "sampler"},
		Ints:   []string{"sampler"},
		Build: func(inst *workload.Instance, p Params, seed uint64, workers int) (Built, error) {
			smp, err := sampler(inst, p, "exploration")
			if err != nil {
				return Built{}, err
			}
			proto, err := core.NewExploration(inst.Game, core.ExplorationConfig{Lambda: p.Float("lambda", 0), Sampler: smp})
			if err != nil {
				return Built{}, err
			}
			d, err := newEngineDynamics(inst, proto, seed, workers)
			if err != nil {
				return Built{}, err
			}
			return Built{Dyn: d, Inst: inst}, nil
		},
	})
	RegisterDynamics(DynKind{
		Name:     "combined",
		Desc:     "per-round mixture of imitation and exploration",
		Group:    GroupEngine,
		Params:   []string{"exploreProb", "lambda", "nu", "disableNu", "sampler"},
		Required: []string{"exploreProb"},
		Ints:     []string{"disableNu", "sampler"},
		Build: func(inst *workload.Instance, p Params, seed uint64, workers int) (Built, error) {
			if _, err := need(p, "dynamics combined", "exploreProb"); err != nil {
				return Built{}, err
			}
			smp, err := sampler(inst, p, "combined")
			if err != nil {
				return Built{}, err
			}
			proto, err := core.NewCombined(inst.Game, core.CombinedConfig{
				ExploreProbability: p.Float("exploreProb", 0),
				Imitation:          imitationConfig(p),
				Exploration:        core.ExplorationConfig{Lambda: p.Float("lambda", 0), Sampler: smp},
			})
			if err != nil {
				return Built{}, err
			}
			d, err := newEngineDynamics(inst, proto, seed, workers)
			if err != nil {
				return Built{}, err
			}
			// The mixture's imitation half owns the ν threshold, so
			// ν-aware stops see the value the protocol actually uses.
			return Built{Dyn: d, Nu: proto.Nu(), Inst: inst}, nil
		},
	})
	RegisterDynamics(DynKind{
		Name:   "best-response",
		Desc:   "one activated player per step moves to a best response",
		Group:  GroupSequential,
		Params: []string{"policy"},
		Ints:   []string{"policy"},
		Build: func(inst *workload.Instance, p Params, seed uint64, _ int) (Built, error) {
			pol, err := policy(p, baseline.PolicyBestGain)
			if err != nil {
				return Built{}, err
			}
			d, err := dynamics.NewBestResponse(inst.State, inst.Oracle, pol, prngNew(seed))
			if err != nil {
				return Built{}, err
			}
			return Built{Dyn: d, Inst: inst}, nil
		},
	})
	RegisterDynamics(DynKind{
		Name:   "sequential-imitation",
		Desc:   "one activated player per step imitates a sampled peer (§3.2)",
		Group:  GroupSequential,
		Params: []string{"policy", "minGain"},
		Ints:   []string{"policy"},
		Build: func(inst *workload.Instance, p Params, seed uint64, _ int) (Built, error) {
			pol, err := policy(p, baseline.PolicyRandom)
			if err != nil {
				return Built{}, err
			}
			d, err := dynamics.NewSequentialImitation(inst.State, pol, p.Float("minGain", 0), prngNew(seed))
			if err != nil {
				return Built{}, err
			}
			return Built{Dyn: d, Inst: inst}, nil
		},
	})
	RegisterDynamics(DynKind{
		Name:     "epsilon-greedy",
		Desc:     "activated player takes an ε-improving better response",
		Group:    GroupSequential,
		Params:   []string{"eps"},
		Required: []string{"eps"},
		Build: func(inst *workload.Instance, p Params, seed uint64, _ int) (Built, error) {
			eps, err := need(p, "dynamics epsilon-greedy", "eps")
			if err != nil {
				return Built{}, err
			}
			d, err := dynamics.NewEpsilonGreedy(inst.State, inst.Oracle, eps, prngNew(seed))
			if err != nil {
				return Built{}, err
			}
			return Built{Dyn: d, Inst: inst}, nil
		},
	})
	RegisterDynamics(DynKind{
		Name:   "goldberg",
		Desc:   "Goldberg's randomized better-response baseline (chunked rounds)",
		Group:  GroupSequential,
		Params: []string{"chunk"},
		Ints:   []string{"chunk"},
		Build: func(inst *workload.Instance, p Params, seed uint64, _ int) (Built, error) {
			d, err := dynamics.NewGoldberg(inst.State, prngNew(seed), p.Int("chunk", 0))
			if err != nil {
				return Built{}, err
			}
			return Built{Dyn: d, Inst: inst}, nil
		},
	})
}

func registerStops() {
	register := func(k stopKind) {
		if _, dup := stopKinds[k.Name]; dup {
			panic("scenario: duplicate stop kind " + k.Name)
		}
		stopKinds[k.Name] = k
	}
	register(stopKind{
		Name: "none",
		Build: func(Params, Built) (dynamics.StopCondition, error) {
			return nil, nil
		},
	})
	register(stopKind{
		Name: "imitation-stable",
		Build: func(_ Params, b Built) (dynamics.StopCondition, error) {
			return dynamics.FromCore(core.StopWhenImitationStable(b.Nu)), nil
		},
	})
	register(stopKind{
		Name:     "approx-eq",
		Params:   []string{"delta", "eps"},
		Required: []string{"delta", "eps"},
		Build: func(p Params, b Built) (dynamics.StopCondition, error) {
			delta, err := need(p, "stop approx-eq", "delta")
			if err != nil {
				return nil, err
			}
			eps, err := need(p, "stop approx-eq", "eps")
			if err != nil {
				return nil, err
			}
			return dynamics.FromCore(core.StopWhenApproxEq(delta, eps, b.Nu)), nil
		},
	})
	register(stopKind{
		Name:   "nash",
		Params: []string{"eps"},
		Build: func(p Params, b Built) (dynamics.StopCondition, error) {
			if b.Inst == nil || b.Inst.Oracle == nil {
				return nil, fmt.Errorf("%w: stop nash needs an instance with an oracle", ErrInvalid)
			}
			return dynamics.FromCore(core.StopWhenNash(b.Inst.Oracle, p.Float("eps", 0))), nil
		},
	})
	register(stopKind{
		Name:     "quiet",
		Params:   []string{"rounds"},
		Required: []string{"rounds"},
		Ints:     []string{"rounds"},
		Build: func(p Params, _ Built) (dynamics.StopCondition, error) {
			rounds, err := need(p, "stop quiet", "rounds")
			if err != nil {
				return nil, err
			}
			if rounds < 1 {
				return nil, fmt.Errorf("%w: stop quiet rounds = %v, need ≥ 1", ErrInvalid, rounds)
			}
			return dynamics.WhenQuiet(int(rounds)), nil
		},
	})
	register(stopKind{
		// first-move fires as soon as any player migrates — the E7
		// "rounds until the unique improvement happens" probe.
		Name: "first-move",
		Build: func(Params, Built) (dynamics.StopCondition, error) {
			return func(_ dynamics.Dynamics, r dynamics.RoundStats) bool {
				return r.Movers > 0
			}, nil
		},
	})
	register(stopKind{
		Name:     "potential-at-most",
		Params:   []string{"phi"},
		Required: []string{"phi"},
		Build: func(p Params, _ Built) (dynamics.StopCondition, error) {
			phi, err := need(p, "stop potential-at-most", "phi")
			if err != nil {
				return nil, err
			}
			return dynamics.FromCore(core.StopWhenPotentialAtMost(phi)), nil
		},
	})
}
