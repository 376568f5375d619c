package fluid

import (
	"fmt"

	"congame/internal/latency"
)

// Mean-field counterparts of the event schedule (internal/events): churn
// is a mass source/sink with a population rescale, latency scaling keeps
// one latency.Amplified layer per link around its unscaled function, and
// topology events grow or drain the mass vector. Each operation mutates
// the Sim's System in place, so a Sim driven by events must own its System
// exclusively (FromGame builds a fresh System per call, which every wiring
// path in this repo uses).
//
// Fluid mass is relative (the simplex), so churn has to track the absolute
// population the mass is scaled by: the per-link massLatency wrappers from
// FromGame carry it. Arrive/Depart take each link's unscaled function (its
// massLatency), retarget it to the new population and put the link's
// scale layer back on top. Systems built directly from base functions
// (NewSystem) have no population and reject churn.

// Arrive adds count players' worth of mass to the given link: existing
// mass is rescaled by n/(n+count), the link gains count/(n+count), and
// every link's latency wrapper is retargeted to population n+count.
func (s *Sim) Arrive(link, count int) error {
	if link < 0 || link >= len(s.y) {
		return fmt.Errorf("%w: arrive link %d out of range [0,%d)", ErrInvalid, link, len(s.y))
	}
	if count < 1 {
		return fmt.Errorf("%w: arrive count %d, need >= 1", ErrInvalid, count)
	}
	pop, err := s.population()
	if err != nil {
		return err
	}
	newPop := pop + float64(count)
	if err := s.retargetAll(newPop); err != nil {
		return err
	}
	factor := pop / newPop
	for e := range s.y {
		s.y[e] *= factor
	}
	s.y[link] += float64(count) / newPop
	s.phi = s.sys.Potential(s.y)
	return nil
}

// Depart removes up to count players' worth of mass from the given link
// (clamped to the mass available and to leaving at least one player's
// worth in the system, mirroring the atomic clamping), then rescales the
// remaining mass back onto the simplex and retargets the population.
func (s *Sim) Depart(link, count int) error {
	if link < 0 || link >= len(s.y) {
		return fmt.Errorf("%w: depart link %d out of range [0,%d)", ErrInvalid, link, len(s.y))
	}
	if count < 1 {
		return fmt.Errorf("%w: depart count %d, need >= 1", ErrInvalid, count)
	}
	pop, err := s.population()
	if err != nil {
		return err
	}
	k := float64(count)
	if avail := s.y[link] * pop; k > avail {
		k = avail
	}
	if pop-k < 1 {
		k = pop - 1
	}
	if !(k > 0) {
		return nil
	}
	newPop := pop - k
	if err := s.retargetAll(newPop); err != nil {
		return err
	}
	s.y[link] -= k / pop
	factor := pop / newPop
	for e := range s.y {
		s.y[e] *= factor
	}
	clampSimplex(s.y)
	s.phi = s.sys.Potential(s.y)
	return nil
}

// ScaleLatency multiplies the given link's latency function by factor —
// the mean-field twin of the atomic rush-hour event. As in
// game.ScaleLatency, firings compound into one stored factor: the link's
// function is a single latency.Amplified around its unscaled function,
// carrying the product of every factor in firing order. A product outside
// (0, +Inf) is refused with ErrInvalid and leaves the Sim untouched.
func (s *Sim) ScaleLatency(link int, factor float64) error {
	if link < 0 || link >= len(s.y) {
		return fmt.Errorf("%w: scale link %d out of range [0,%d)", ErrInvalid, link, len(s.y))
	}
	prod := factor
	if c := s.scale[link]; c != 0 {
		prod = c * factor
	}
	amp, err := latency.NewAmplified(s.unscaled(link), prod)
	if err != nil {
		return fmt.Errorf("%w: scaling link %d by %v compounds its latency factor: %w", ErrInvalid, link, factor, err)
	}
	s.sys.fns[link] = amp
	s.scale[link] = prod
	s.phi = s.sys.Potential(s.y)
	return nil
}

// AddLink appends a new link with the given base (atomic) latency
// function, starting with zero mass, and grows every integrator buffer.
// On a population-scaled system the function is wrapped to evaluate at
// absolute load y·n, matching FromGame. A zero-mass link never repopulates
// under pure imitation dynamics (ẏ_e ∝ y_e), which reproduces the atomic
// model: newly added strategies only gain players through exploration or
// explicit arrivals.
func (s *Sim) AddLink(base latency.Function) error {
	if base == nil {
		return fmt.Errorf("%w: add-link latency function must not be nil", ErrInvalid)
	}
	fn := base
	if pop, err := s.population(); err == nil {
		fn = massLatency{base: base, n: pop}
	}
	s.sys.fns = append(s.sys.fns, fn)
	s.scale = append(s.scale, 0)
	m := len(s.sys.fns)
	s.y = append(s.y, 0)
	s.k1 = append(s.k1, 0)
	s.k2 = append(s.k2, 0)
	s.k3 = append(s.k3, 0)
	s.k4 = append(s.k4, 0)
	s.tmp = append(s.tmp, 0)
	s.yPrev = append(s.yPrev, 0)
	s.roundPrev = append(s.roundPrev, 0)
	s.dw.init(m)
	s.phi = s.sys.Potential(s.y)
	return nil
}

// RemoveLink drains the given link's mass onto the fallback link. The
// drained link keeps its index and latency function with zero mass —
// pure-imitation dynamics never repopulate it, and zero-mass links are
// skipped by the statistics — mirroring the atomic retirement semantics.
func (s *Sim) RemoveLink(link, fallback int) error {
	if link < 0 || link >= len(s.y) {
		return fmt.Errorf("%w: remove link %d out of range [0,%d)", ErrInvalid, link, len(s.y))
	}
	if fallback < 0 || fallback >= len(s.y) {
		return fmt.Errorf("%w: fallback link %d out of range [0,%d)", ErrInvalid, fallback, len(s.y))
	}
	if fallback == link {
		return fmt.Errorf("%w: fallback link %d equals the removed link", ErrInvalid, fallback)
	}
	s.y[fallback] += s.y[link]
	s.y[link] = 0
	s.phi = s.sys.Potential(s.y)
	return nil
}

// population returns the absolute player count the system's mass is
// scaled by: the target of the first link's massLatency wrapper.
func (s *Sim) population() (float64, error) {
	if pop, ok := s.Population(); ok {
		return pop, nil
	}
	return 0, fmt.Errorf("%w: system is not population-scaled (not built by FromGame) — churn events need an absolute population", ErrInvalid)
}

// retargetAll rewrites every link's massLatency wrapper to the new
// population, keeping the link's scale layer on top.
func (s *Sim) retargetAll(pop float64) error {
	for e := range s.sys.fns {
		ml, ok := s.unscaled(e).(massLatency)
		if !ok {
			return fmt.Errorf("%w: link %d is not population-scaled — churn events need every link built by FromGame or AddLink", ErrInvalid, e)
		}
		s.sys.fns[e] = s.scaled(e, massLatency{base: ml.base, n: pop})
	}
	return nil
}

// unscaled returns link e's function without the layer ScaleLatency puts
// on top of it.
func (s *Sim) unscaled(e int) latency.Function {
	if s.scale[e] == 0 {
		return s.sys.fns[e]
	}
	return s.sys.fns[e].(latency.Amplified).F
}

// scaled puts link e's scale layer, if it has one, around fn.
func (s *Sim) scaled(e int, fn latency.Function) latency.Function {
	if s.scale[e] == 0 {
		return fn
	}
	return latency.Amplified{F: fn, C: s.scale[e]}
}
