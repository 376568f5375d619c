package fluid

import (
	"fmt"
	"math"
)

// Checkpoint/restore for the mean-field backend (internal/checkpoint).
//
// A fluid trajectory is deterministic in (system, y0, config), so a
// checkpoint needs the mass vector, the round counter, the incrementally
// maintained potential and last-round migration mass — all raw float bits,
// since phi is accumulated Simpson segment by Simpson segment and a
// recomputation would differ in the last ulp — plus each link's latency
// WRAPPERS. They matter because churn and rush-hour events mutate the
// System in place: Arrive/Depart retarget every massLatency wrapper to a
// new population and ScaleLatency compounds the link's scale factor. Those
// mutations cannot be replayed structurally on a fresh Sim — Depart clamps
// against the live mass vector, so replaying it from a different state
// retargets to the wrong population. Instead WrapChains records each
// link's population target and scale factor, and Restore puts exactly
// those wrappers back around each link's base function, reproducing the
// checkpointed Value computations bit for bit. Topology events (AddLink)
// DO replay structurally — they only grow buffers — which is the caller's
// job before Restore; RemoveLink needs no replay at all (it only moves
// mass, which the restored vector already reflects).

// LinkWrap describes one link's latency wrappers in a checkpoint: the
// population target of its massLatency wrapper (0 for systems that are
// not population-scaled) and the product of its ScaleLatency factors (0
// for a link no latency-scale event has fired on).
type LinkWrap struct {
	Pop   float64
	Scale float64
}

// WrapChains captures every link's current wrappers for a checkpoint.
// The base functions themselves are not captured — a restore rebuilds them
// from the scenario spec (FromGame plus AddLink replay) and rewraps.
func (s *Sim) WrapChains() []LinkWrap {
	out := make([]LinkWrap, len(s.sys.fns))
	for e := range s.sys.fns {
		out[e].Scale = s.scale[e]
		if ml, ok := s.unscaled(e).(massLatency); ok {
			out[e].Pop = ml.n
		}
	}
	return out
}

// Restore overwrites the simulator's trajectory state from a checkpoint:
// the mass vector, round counter, incrementally maintained potential, and
// last-round migration mass are adopted raw (bit for bit, no
// renormalization or recomputation), and every link's latency function is
// rewrapped per wraps. The Sim must already have the checkpointed link
// count — replay the schedule's AddLink events first. The integrator
// workspaces need no restoring (every Step overwrites them), and the fast
// derivative's persistent link order is a pure function of the latencies,
// so a resumed run is bit-identical to an uninterrupted one.
func (s *Sim) Restore(round int, y []float64, phi, moveMass float64, wraps []LinkWrap) error {
	if round < 0 {
		return fmt.Errorf("%w: restore round %d, need >= 0", ErrInvalid, round)
	}
	if len(y) != len(s.y) {
		return fmt.Errorf("%w: restore mass vector has %d links, sim has %d — replay AddLink events first", ErrInvalid, len(y), len(s.y))
	}
	if len(wraps) != len(s.sys.fns) {
		return fmt.Errorf("%w: restore has %d link wrappers, sim has %d links", ErrInvalid, len(wraps), len(s.sys.fns))
	}
	for e, w := range wraps {
		if w.Scale < 0 || math.IsInf(w.Scale, 1) || math.IsNaN(w.Scale) {
			return fmt.Errorf("%w: restore link %d scale factor %v, need 0 (none) or within (0, +Inf)", ErrInvalid, e, w.Scale)
		}
	}
	for e, w := range wraps {
		fn := s.unscaled(e)
		if ml, ok := fn.(massLatency); ok {
			fn = ml.base
		}
		if w.Pop > 0 {
			fn = massLatency{base: fn, n: w.Pop}
		}
		s.scale[e] = w.Scale
		s.sys.fns[e] = s.scaled(e, fn)
	}
	copy(s.y, y)
	s.round = round
	s.phi = phi
	s.moveMass = moveMass
	return nil
}
