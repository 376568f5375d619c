package game

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"congame/internal/latency"
	"congame/internal/prng"
)

// scalePatterns are the alternating factor pairs the one-layer tests fire:
// rush-4m's rush hour and a pair whose product is inexact.
var scalePatterns = []struct {
	name    string
	factors [2]float64
}{
	{"x4-x0.25", [2]float64{4, 0.25}},
	{"x1.5-x0.8", [2]float64{1.5, 0.8}},
}

// TestScaleLatencyKeepsOneLayer pins the compounded-factor invariant:
// after k latency-scale firings on one link, the link's function is one
// latency.Amplified whose F is the unscaled function and whose C is the
// product of the factors in firing order.
func TestScaleLatencyKeepsOneLayer(t *testing.T) {
	for _, pat := range scalePatterns {
		for _, k := range []int{1, 2, 49} {
			t.Run(fmt.Sprintf("%s/k=%d", pat.name, k), func(t *testing.T) {
				rng := prng.New(31)
				g := incrGame(t, 40, 6, 2, rng)
				st, err := NewRandomState(g, rng)
				if err != nil {
					t.Fatal(err)
				}
				const e = 1
				unscaled := g.Resource(e).Latency
				prod := 1.0
				for i := 0; i < k; i++ {
					c := pat.factors[i%2]
					if _, err := st.ScaleLatency(e, c); err != nil {
						t.Fatalf("firing %d: %v", i, err)
					}
					prod *= c
				}
				amp, ok := g.Resource(e).Latency.(latency.Amplified)
				if !ok {
					t.Fatalf("link function is %T, want one latency.Amplified", g.Resource(e).Latency)
				}
				if !reflect.DeepEqual(amp.F, unscaled) {
					t.Fatalf("Amplified.F = %v, want the unscaled %v", amp.F, unscaled)
				}
				if amp.C != prod {
					t.Fatalf("Amplified.C = %v, want the product %v", amp.C, prod)
				}
			})
		}
	}
}

// TestScaleLatencyRefusesOutOfRangeProduct: a factor that compounds a
// link's stored factor to +Inf or to 0 is refused with ErrInvalid, and the
// game and state are left as they were.
func TestScaleLatencyRefusesOutOfRangeProduct(t *testing.T) {
	for _, c := range []float64{1e200, 1e-200} {
		t.Run(fmt.Sprint(c), func(t *testing.T) {
			rng := prng.New(37)
			g := incrGame(t, 64, 4, 0, rng)
			st, err := NewRandomState(g, rng)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.ScaleLatency(0, c); err != nil {
				t.Fatalf("first firing: %v", err)
			}
			fn, phi, nu := g.Resource(0).Latency, st.Potential(), g.NuOf(0)
			dphi, err := st.ScaleLatency(0, c)
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("second firing: err = %v, want ErrInvalid", err)
			}
			if dphi != 0 {
				t.Errorf("refused firing returned ΔΦ = %v", dphi)
			}
			if !reflect.DeepEqual(g.Resource(0).Latency, fn) || st.Potential() != phi || g.NuOf(0) != nu {
				t.Error("refused firing changed the link")
			}
		})
	}
}
