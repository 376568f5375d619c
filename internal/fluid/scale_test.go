package fluid

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"congame/internal/latency"
	"congame/internal/prng"
	"congame/internal/workload"
)

// scaledSim builds a population-scaled sim (FromGame) over 6 links.
func scaledSim(t *testing.T) *Sim {
	t.Helper()
	inst, err := workload.LinearSingletons(6, 400, 3, prng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := FromGame(inst.Game, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(sys, EmpiricalDistribution(inst.State, nil), SimConfig{Substeps: 4})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestScaleLatencyKeepsOneLayer is the mean-field twin of game's test of
// the same name: after k firings on one link, its population-wrapped
// function is one latency.Amplified around the link's massLatency, with C
// the product of the factors in firing order. Churn between firings
// retargets the population under the layer without adding one.
func TestScaleLatencyKeepsOneLayer(t *testing.T) {
	for _, pat := range []struct {
		name    string
		factors [2]float64
	}{
		{"x4-x0.25", [2]float64{4, 0.25}},
		{"x1.5-x0.8", [2]float64{1.5, 0.8}},
	} {
		for _, k := range []int{1, 2, 49} {
			t.Run(fmt.Sprintf("%s/k=%d", pat.name, k), func(t *testing.T) {
				sim := scaledSim(t)
				const e = 2
				base := sim.sys.fns[e].(massLatency).base
				prod := 1.0
				for i := 0; i < k; i++ {
					c := pat.factors[i%2]
					if err := sim.ScaleLatency(e, c); err != nil {
						t.Fatalf("firing %d: %v", i, err)
					}
					prod *= c
					if i%7 == 3 {
						if err := sim.Arrive(0, 5); err != nil {
							t.Fatal(err)
						}
					}
				}
				pop, ok := sim.Population()
				if !ok {
					t.Fatal("sim lost its population")
				}
				want := latency.Amplified{F: massLatency{base: base, n: pop}, C: prod}
				if got := sim.sys.fns[e]; !reflect.DeepEqual(got, want) {
					t.Fatalf("link function = %#v, want %#v", got, want)
				}
				if w := sim.WrapChains()[e]; w.Pop != pop || w.Scale != prod {
					t.Fatalf("WrapChains = %+v, want {Pop:%v Scale:%v}", w, pop, prod)
				}
			})
		}
	}
}

// TestScaleLatencyRefusesOutOfRangeProduct: a factor that compounds a
// link's stored factor to +Inf or to 0 is refused with ErrInvalid and
// leaves the sim as it was.
func TestScaleLatencyRefusesOutOfRangeProduct(t *testing.T) {
	for _, c := range []float64{1e200, 1e-200} {
		sim := scaledSim(t)
		if err := sim.ScaleLatency(0, c); err != nil {
			t.Fatalf("factor %v: first firing: %v", c, err)
		}
		fn, phi := sim.sys.fns[0], sim.Potential()
		if err := sim.ScaleLatency(0, c); !errors.Is(err, ErrInvalid) {
			t.Fatalf("factor %v: second firing: err = %v, want ErrInvalid", c, err)
		}
		if !reflect.DeepEqual(sim.sys.fns[0], fn) || sim.Potential() != phi {
			t.Errorf("factor %v: refused firing changed the link", c)
		}
	}
}

// TestRestoreRewrapsOneLayer: a snapshot's wrappers restored onto a fresh
// sim give every link the same function as the captured sim, and a later
// firing compounds onto the restored factor.
func TestRestoreRewrapsOneLayer(t *testing.T) {
	src := scaledSim(t)
	for _, c := range []float64{1.5, 0.8, 1.5} {
		if err := src.ScaleLatency(1, c); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Depart(3, 40); err != nil {
		t.Fatal(err)
	}
	src.Step()
	dst := scaledSim(t)
	if err := dst.Restore(src.Round(), src.Mass(), src.Potential(), src.MigrationMass(), src.WrapChains()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dst.sys.fns, src.sys.fns) {
		t.Fatalf("restored functions differ:\n got %#v\nwant %#v", dst.sys.fns, src.sys.fns)
	}
	for _, sim := range []*Sim{src, dst} {
		if err := sim.ScaleLatency(1, 0.8); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(dst.sys.fns, src.sys.fns) {
		t.Fatal("a firing after the restore compounds differently from the uninterrupted sim")
	}
	bad := src.WrapChains()
	bad[1].Scale = -1
	if err := scaledSim(t).Restore(0, src.Mass(), 0, 0, bad); !errors.Is(err, ErrInvalid) {
		t.Fatalf("restore of a negative scale factor: err = %v, want ErrInvalid", err)
	}
}
