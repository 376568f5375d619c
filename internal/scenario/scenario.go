// Package scenario is the declarative layer over the simulation stack: a
// versioned, validated spec type describes an instance family (package
// workload), a dynamics choice (package dynamics), a stop condition, a
// replication schedule, and a parameter grid — all loadable from JSON — and
// the sweep engine expands the grid into cells, fans each cell's
// replications out through runner.Map, and folds per-cell aggregates
// (package stats) into a sim.Table renderable as text, markdown, CSV, or
// JSON.
//
// The point of the package is that a scenario is DATA, not Go: cmd/sweep
// runs a spec file end-to-end. The committed example specs under
// examples/scenarios/ are pinned byte for byte by their quick and
// full-size golden CSVs (TestExampleSpecsMatchGolden); two of them are
// the only implementation of experiment E2 and of E3's layered-DAG rows.
// Three registries resolve names to constructors — instance families,
// dynamics kinds, and stop conditions — plus a metric registry for the
// aggregate columns; see registry.go for the built-in names and
// Register* for extending them.
//
// # Seed-derivation contract
//
// Every replication of every cell derives its randomness purely from spec
// coordinates, so sweeps are bit-reproducible regardless of the
// par/workers knobs (the two parallelism axes of DESIGN.md §6):
//
//	instance rng  = prng.Stream(seed, instance.keys..., rep, coords...)
//	dynamics seed = prng.Mix(seed, dynamics.keys..., rep, coords...)
//
// where coords are the cell's swept parameter values in seed_coords
// order (default: sweep-axis declaration order) — exact non-negative
// integers contribute their integer value, anything else its IEEE-754
// bit pattern — and keys are the spec's stream identifiers. Hand-rolled
// experiments use exactly this shape (e.g. E3's singleton rows:
// prng.Stream(seed, 3, rep, n) with engine seed prng.Mix(seed, 31, rep,
// n)), which is what lets a spec file reproduce their tables bit-for-bit.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"

	"congame/internal/events"
)

// ErrInvalid reports an invalid scenario spec.
var ErrInvalid = errors.New("scenario: invalid")

// Version is the current spec schema version. Version 1 specs (no events
// block) are still accepted; version 2 adds the "events" schedule.
const Version = 2

// maxCells bounds grid expansion so a typo'd range cannot allocate an
// unbounded sweep.
const maxCells = 10000

// Params holds a component's named numeric parameters. JSON booleans are
// accepted and stored as 0/1.
type Params map[string]float64

// UnmarshalJSON accepts numbers and booleans, rejecting anything else
// with an actionable message.
func (p *Params) UnmarshalJSON(data []byte) error {
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	out := make(Params, len(raw))
	for k, v := range raw {
		switch t := v.(type) {
		case float64:
			out[k] = t
		case bool:
			// Store false as an explicit 0 so the key stays present and
			// unknown-param validation still sees it.
			if t {
				out[k] = 1
			} else {
				out[k] = 0
			}
		default:
			return fmt.Errorf("%w: param %q must be a number or boolean, got %T", ErrInvalid, k, v)
		}
	}
	*p = out
	return nil
}

// Float returns the named parameter or def when absent.
func (p Params) Float(name string, def float64) float64 {
	if v, ok := p[name]; ok {
		return v
	}
	return def
}

// Int returns the named parameter as an int or def when absent.
func (p Params) Int(name string, def int) int {
	if v, ok := p[name]; ok {
		return int(v)
	}
	return def
}

// Bool returns whether the named parameter is non-zero, or def when
// absent.
func (p Params) Bool(name string, def bool) bool {
	if v, ok := p[name]; ok {
		return v != 0
	}
	return def
}

// Has reports whether the parameter is present.
func (p Params) Has(name string) bool {
	_, ok := p[name]
	return ok
}

// clone returns a shallow copy safe to mutate per cell.
func (p Params) clone() Params {
	out := make(Params, len(p)+2)
	for k, v := range p {
		out[k] = v
	}
	return out
}

// InstanceSpec names a registered instance family with its parameters and
// seed-stream keys.
type InstanceSpec struct {
	// Family is the registered instance-family name (see Families).
	Family string `json:"family"`
	// Keys are the prng stream identifiers mixed between the base seed
	// and the replication index when deriving the family's rng.
	Keys []uint64 `json:"keys,omitempty"`
	// Params are the family's named parameters; swept parameters may be
	// omitted here and provided by the sweep axes instead.
	Params Params `json:"params,omitempty"`
}

// DynamicsSpec names a registered dynamics kind with its parameters and
// seed keys.
type DynamicsSpec struct {
	// Kind is the registered dynamics name (see DynamicsKinds).
	Kind string `json:"kind"`
	// Keys are the prng stream identifiers for the dynamics seed.
	Keys []uint64 `json:"keys,omitempty"`
	// Params are the kind's named parameters.
	Params Params `json:"params,omitempty"`
}

// StopSpec names a registered stop condition.
type StopSpec struct {
	// Kind is the registered stop-condition name (see StopKinds).
	Kind string `json:"kind"`
	// Params are the condition's named parameters.
	Params Params `json:"params,omitempty"`
}

// AxisSpec declares one sweep dimension: an explicit value list or an
// inclusive arithmetic range. Param addresses the parameter the axis
// overrides: a bare name targets the instance params; the prefixes
// "instance.", "dynamics.", and "stop." select the component explicitly.
type AxisSpec struct {
	Param  string    `json:"param"`
	Values []float64 `json:"values,omitempty"`
	From   *float64  `json:"from,omitempty"`
	To     *float64  `json:"to,omitempty"`
	Step   *float64  `json:"step,omitempty"`
}

// expand resolves the axis into its concrete value list.
func (a AxisSpec) expand() ([]float64, error) {
	if len(a.Values) > 0 {
		if a.From != nil || a.To != nil || a.Step != nil {
			return nil, fmt.Errorf("%w: axis %q mixes values with from/to/step", ErrInvalid, a.Param)
		}
		return a.Values, nil
	}
	if a.From == nil || a.To == nil {
		return nil, fmt.Errorf("%w: axis %q needs either values or from/to", ErrInvalid, a.Param)
	}
	step := 1.0
	if a.Step != nil {
		step = *a.Step
	}
	if step <= 0 {
		return nil, fmt.Errorf("%w: axis %q step %v must be > 0", ErrInvalid, a.Param, step)
	}
	var out []float64
	for v := *a.From; v <= *a.To+step*1e-9; v += step {
		out = append(out, v)
		if len(out) > maxCells {
			return nil, fmt.Errorf("%w: axis %q expands to more than %d values", ErrInvalid, a.Param, maxCells)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: axis %q range [%v,%v] is empty", ErrInvalid, a.Param, *a.From, *a.To)
	}
	return out, nil
}

// TraceSpec requests a per-round trace of one replication per cell.
type TraceSpec struct {
	// Rep is the replication index to trace (default 0).
	Rep int `json:"rep,omitempty"`
	// Capacity bounds the trace to the most recent rounds via a ring
	// buffer; 0 records every round.
	Capacity int `json:"capacity,omitempty"`
}

// QuickSpec overrides the schedule for quick (smoke / CI) runs. Axes keep
// their identity; only the listed ones get replacement values.
type QuickSpec struct {
	Reps   int        `json:"reps,omitempty"`
	Rounds int        `json:"rounds,omitempty"`
	Sweep  []AxisSpec `json:"sweep,omitempty"`
}

// Spec is a complete declarative scenario: who plays (instance), how they
// move (dynamics), when a replication stops, how often it repeats, and
// which parameter grid to sweep.
type Spec struct {
	// Version is the schema version; must equal Version.
	Version int `json:"version"`
	// Name identifies the scenario (table ID, output file stems).
	Name string `json:"name"`
	// Title and Claim annotate the rendered table (optional).
	Title string `json:"title,omitempty"`
	Claim string `json:"claim,omitempty"`

	Instance InstanceSpec `json:"instance"`
	Dynamics DynamicsSpec `json:"dynamics"`
	// Stop is optional; absent means the fixed round budget.
	Stop *StopSpec `json:"stop,omitempty"`

	// Rounds is the per-replication round budget.
	Rounds int `json:"rounds"`
	// Reps is the number of independent replications per cell.
	Reps int `json:"reps"`
	// Seed is the base random seed; identical seeds reproduce sweeps
	// bit-for-bit across any par/workers setting.
	Seed uint64 `json:"seed"`
	// Workers is the per-replication engine worker count (0 = auto: 1
	// while replications run in parallel, GOMAXPROCS otherwise).
	Workers int `json:"workers,omitempty"`
	// Par bounds the replication-parallel worker pool (0 = GOMAXPROCS).
	Par int `json:"par,omitempty"`

	// Metrics are the aggregate columns, in order (see MetricNames).
	Metrics []string `json:"metrics"`
	// Sweep declares the grid axes, outermost first. Empty = one cell.
	Sweep []AxisSpec `json:"sweep,omitempty"`
	// SeedCoords orders the swept parameter values inside the seed
	// derivation (default: sweep declaration order). Entries name sweep
	// axes by their Param.
	SeedCoords []string `json:"seed_coords,omitempty"`

	// Events is the deterministic live-scenario schedule (version ≥ 2):
	// player churn, latency scaling, and topology mutations applied before
	// the decide phase of the rounds they name. The schedule is validated
	// statically here and against each replication's instance at build
	// time; it applies identically to every cell and replication.
	Events []events.Event `json:"events,omitempty"`

	Trace *TraceSpec `json:"trace,omitempty"`
	Quick *QuickSpec `json:"quick,omitempty"`
}

// Load reads and validates a spec from a JSON file.
func Load(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: open spec: %w", err)
	}
	defer f.Close()
	spec, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return spec, nil
}

// Parse reads and validates a spec from JSON. Unknown fields are
// rejected so typos surface instead of silently doing nothing.
func Parse(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec Spec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// Validate checks the spec against the registries and the schema rules.
func (s *Spec) Validate() error {
	if s.Version != Version && s.Version != 1 {
		return fmt.Errorf("%w: version %d (this build reads versions 1 and %d)", ErrInvalid, s.Version, Version)
	}
	if len(s.Events) > 0 {
		if s.Version < 2 {
			return fmt.Errorf("%w: events require version 2, spec declares version %d", ErrInvalid, s.Version)
		}
		sched, err := events.NewSchedule(s.Events)
		if err != nil {
			return fmt.Errorf("%w: %w", ErrInvalid, err)
		}
		// The quick budget is checked too: the firings within the shorter
		// budget are a prefix of those within the longer one, so checking
		// the longer covers both.
		rounds := s.Rounds
		if s.Quick != nil {
			rounds = max(rounds, s.Quick.Rounds)
		}
		if err := sched.CheckScaling(rounds); err != nil {
			return fmt.Errorf("%w: %w", ErrInvalid, err)
		}
	}
	if s.Name == "" {
		return fmt.Errorf("%w: name is required", ErrInvalid)
	}
	if strings.ContainsAny(s.Name, " /\\") {
		return fmt.Errorf("%w: name %q must not contain spaces or path separators", ErrInvalid, s.Name)
	}
	fam, ok := families[s.Instance.Family]
	if !ok {
		return fmt.Errorf("%w: unknown instance family %q (valid: %s)", ErrInvalid, s.Instance.Family, strings.Join(Families(), ", "))
	}
	kind, ok := dynKinds[s.Dynamics.Kind]
	if !ok {
		return fmt.Errorf("%w: unknown dynamics kind %q (valid: %s)", ErrInvalid, s.Dynamics.Kind, strings.Join(DynamicsKinds(), ", "))
	}
	var stop stopKind
	if s.Stop != nil {
		stop, ok = stopKinds[s.Stop.Kind]
		if !ok {
			return fmt.Errorf("%w: unknown stop condition %q (valid: %s)", ErrInvalid, s.Stop.Kind, strings.Join(StopKinds(), ", "))
		}
	}
	if s.Rounds < 1 {
		return fmt.Errorf("%w: rounds = %d, need ≥ 1", ErrInvalid, s.Rounds)
	}
	if s.Reps < 1 {
		return fmt.Errorf("%w: reps = %d, need ≥ 1", ErrInvalid, s.Reps)
	}
	if len(s.Metrics) == 0 {
		return fmt.Errorf("%w: at least one metric is required (valid: %s)", ErrInvalid, strings.Join(MetricNames(), ", "))
	}
	for _, m := range s.Metrics {
		if _, ok := metrics[m]; !ok {
			return fmt.Errorf("%w: unknown metric %q (valid: %s)", ErrInvalid, m, strings.Join(MetricNames(), ", "))
		}
	}

	// Which params does each component accept? Swept parameters must be
	// addressable, declared params must be known to the component, and
	// integer-typed params must hold integral values (otherwise a table
	// row would be labeled with a value the constructor truncated away).
	if err := checkParams("instance family "+s.Instance.Family, s.Instance.Params, fam.params(), fam.Ints); err != nil {
		return err
	}
	if err := checkParams("dynamics kind "+s.Dynamics.Kind, s.Dynamics.Params, kind.Params, kind.Ints); err != nil {
		return err
	}
	if s.Stop != nil {
		if err := checkParams("stop condition "+s.Stop.Kind, s.Stop.Params, stop.Params, stop.Ints); err != nil {
			return err
		}
	}

	// axisInts reports whether the axis' resolved target is int-typed.
	axisInts := func(a AxisSpec) (bool, error) {
		comp, name, err := s.resolveAxisTarget(a.Param)
		if err != nil {
			return false, err
		}
		switch comp {
		case axisDynamics:
			return contains(kind.Ints, name), nil
		case axisStop:
			return contains(stop.Ints, name), nil
		default:
			return contains(fam.Ints, name), nil
		}
	}
	checkAxisValues := func(a AxisSpec) error {
		vals, err := a.expand()
		if err != nil {
			return err
		}
		isInt, err := axisInts(a)
		if err != nil {
			return err
		}
		if !isInt {
			return nil
		}
		for _, v := range vals {
			if v != math.Trunc(v) {
				return fmt.Errorf("%w: sweep axis %q holds the integer parameter but lists %v", ErrInvalid, a.Param, v)
			}
		}
		return nil
	}

	seen := map[string]bool{}
	resolved := map[string]bool{}
	axes := map[axisComponent]map[string]bool{
		axisInstance: {}, axisDynamics: {}, axisStop: {},
	}
	for _, a := range s.Sweep {
		comp, name, err := s.resolveAxisTarget(a.Param)
		if err != nil {
			return err
		}
		var known []string
		switch comp {
		case axisInstance:
			known = fam.params()
		case axisDynamics:
			known = kind.Params
		case axisStop:
			known = stop.Params
		}
		if !contains(known, name) {
			return fmt.Errorf("%w: sweep axis %q is not a parameter of its component (valid: %s)", ErrInvalid, a.Param, strings.Join(known, ", "))
		}
		// Duplicates are detected on the RESOLVED target so the aliases
		// "n" and "instance.n" cannot silently overwrite each other.
		key := fmt.Sprintf("%d.%s", comp, name)
		if resolved[key] {
			return fmt.Errorf("%w: duplicate sweep axis %q (two axes target the same parameter)", ErrInvalid, a.Param)
		}
		resolved[key] = true
		seen[a.Param] = true
		axes[comp][name] = true
		if err := checkAxisValues(a); err != nil {
			return err
		}
	}
	// Required params must be present up front — either declared or
	// provided by a sweep axis — so a spec cannot validate cleanly and
	// then fail in the middle of a long sweep.
	checkRequired := func(what string, p Params, required []string, swept map[string]bool) error {
		var missing []string
		for _, req := range required {
			if !p.Has(req) && !swept[req] {
				missing = append(missing, req)
			}
		}
		if len(missing) > 0 {
			slices.Sort(missing)
			return fmt.Errorf("%w: %s requires params %s (declare them or sweep them)", ErrInvalid, what, strings.Join(missing, ", "))
		}
		return nil
	}
	if err := checkRequired("instance family "+s.Instance.Family, s.Instance.Params, fam.Required, axes[axisInstance]); err != nil {
		return err
	}
	if err := checkRequired("dynamics kind "+s.Dynamics.Kind, s.Dynamics.Params, kind.Required, axes[axisDynamics]); err != nil {
		return err
	}
	if s.Stop != nil {
		if err := checkRequired("stop condition "+s.Stop.Kind, s.Stop.Params, stop.Required, axes[axisStop]); err != nil {
			return err
		}
	}
	coordSeen := map[string]bool{}
	for _, c := range s.SeedCoords {
		if !seen[c] {
			return fmt.Errorf("%w: seed_coords entry %q does not name a sweep axis", ErrInvalid, c)
		}
		if coordSeen[c] {
			return fmt.Errorf("%w: duplicate seed_coords entry %q", ErrInvalid, c)
		}
		coordSeen[c] = true
	}
	if len(s.SeedCoords) > 0 && len(s.SeedCoords) != len(s.Sweep) {
		return fmt.Errorf("%w: seed_coords lists %d of %d sweep axes; list all or none", ErrInvalid, len(s.SeedCoords), len(s.Sweep))
	}
	if s.Trace != nil {
		if s.Trace.Rep < 0 || s.Trace.Rep >= s.Reps {
			return fmt.Errorf("%w: trace.rep = %d out of [0,%d)", ErrInvalid, s.Trace.Rep, s.Reps)
		}
		if s.Trace.Capacity < 0 {
			return fmt.Errorf("%w: trace.capacity = %d", ErrInvalid, s.Trace.Capacity)
		}
	}
	if s.Quick != nil {
		if s.Quick.Reps < 0 || s.Quick.Rounds < 0 {
			return fmt.Errorf("%w: quick overrides must be ≥ 0", ErrInvalid)
		}
		for _, a := range s.Quick.Sweep {
			if !seen[a.Param] {
				return fmt.Errorf("%w: quick sweep override %q does not name a sweep axis", ErrInvalid, a.Param)
			}
			if err := checkAxisValues(a); err != nil {
				return err
			}
		}
	}
	return nil
}

// axisComponent addresses which Params map a sweep axis writes into.
type axisComponent int

const (
	axisInstance axisComponent = iota
	axisDynamics
	axisStop
)

// resolveAxisTarget splits an axis param ("n", "instance.n",
// "dynamics.lambda", "stop.eps") into its component and bare name.
func (s *Spec) resolveAxisTarget(param string) (axisComponent, string, error) {
	comp, name, found := strings.Cut(param, ".")
	if !found {
		return axisInstance, param, nil
	}
	switch comp {
	case "instance":
		return axisInstance, name, nil
	case "dynamics":
		return axisDynamics, name, nil
	case "stop":
		if s.Stop == nil {
			return 0, "", fmt.Errorf("%w: sweep axis %q targets stop but no stop condition is declared", ErrInvalid, param)
		}
		return axisStop, name, nil
	default:
		return 0, "", fmt.Errorf("%w: sweep axis %q has unknown component prefix %q (use instance., dynamics., or stop.)", ErrInvalid, param, comp)
	}
}

// checkParams rejects params the component does not declare and
// fractional values for its integer-typed params.
func checkParams(what string, p Params, known, ints []string) error {
	var bad []string
	for name := range p {
		if !contains(known, name) {
			bad = append(bad, name)
		}
	}
	if len(bad) > 0 {
		slices.Sort(bad)
		return fmt.Errorf("%w: %s does not accept params %s (valid: %s)", ErrInvalid, what, strings.Join(bad, ", "), strings.Join(known, ", "))
	}
	for _, name := range ints {
		if v, ok := p[name]; ok && v != math.Trunc(v) {
			return fmt.Errorf("%w: %s param %q must be an integer, got %v", ErrInvalid, what, name, v)
		}
	}
	return nil
}

func contains(xs []string, x string) bool { return slices.Contains(xs, x) }

// Effective returns the spec with quick-mode overrides applied (a copy;
// the receiver is never mutated).
func (s *Spec) Effective(quick bool) *Spec {
	out := *s
	if !quick || s.Quick == nil {
		return &out
	}
	if s.Quick.Reps > 0 {
		out.Reps = s.Quick.Reps
	}
	if s.Quick.Rounds > 0 {
		out.Rounds = s.Quick.Rounds
	}
	if len(s.Quick.Sweep) > 0 {
		axes := make([]AxisSpec, len(s.Sweep))
		copy(axes, s.Sweep)
		for _, o := range s.Quick.Sweep {
			for i := range axes {
				if axes[i].Param == o.Param {
					axes[i] = o
				}
			}
		}
		out.Sweep = axes
	}
	// Trace rep may exceed the reduced replication count; clamp to 0.
	if out.Trace != nil && out.Trace.Rep >= out.Reps {
		t := *out.Trace
		t.Rep = 0
		out.Trace = &t
	}
	return &out
}

// formatValue renders a cell parameter value the way sim.Table.AddRow
// renders the experiments' axis columns: integral values print as
// integers, everything else with 4 significant digits.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}
