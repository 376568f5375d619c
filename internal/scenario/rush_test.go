package scenario

import (
	"context"
	"errors"
	"strings"
	"testing"

	"congame/internal/events"
)

// probeSpec is a small linear-singletons spec whose every-round ×1e200
// rush hour compounds link 0's latency factor past +Inf at round 2.
func probeSpec(kind string) *Spec {
	return &Spec{
		Version:  Version,
		Name:     "probe",
		Instance: InstanceSpec{Family: "linear-singletons", Params: Params{"m": 4, "n": 64, "maxSlope": 2}},
		Dynamics: DynamicsSpec{Kind: kind},
		Rounds:   6,
		Reps:     2,
		Seed:     1,
		Events:   []events.Event{{Round: 1, Every: 1, Kind: events.LatencyScale, Resource: 0, Factor: 1e200}},
		Metrics:  []string{"mean_final_potential", "mean_final_avg_latency"},
	}
}

// TestValidateRefusesCompoundedOverflow: a rush hour whose compounded
// factor leaves (0, +Inf) within the round budget — the full one or the
// quick one — fails validation, and Run refuses it, instead of running to
// an infinite or NaN potential.
func TestValidateRefusesCompoundedOverflow(t *testing.T) {
	const want = "event 0 (latency-scale) at round 2: link 0's"
	for _, kind := range []string{"imitation", "fluid-imitation"} {
		err := probeSpec(kind).Validate()
		if !errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Validate err = %v, want ErrInvalid naming %q", kind, err, want)
		}
		if _, err := Run(context.Background(), probeSpec(kind), Options{}); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: Run err = %v, want ErrInvalid", kind, err)
		}
		quick := probeSpec(kind)
		quick.Rounds = 2
		if err := quick.Validate(); err != nil {
			t.Fatalf("%s: a 2-round budget fires once and should pass: %v", kind, err)
		}
		quick.Quick = &QuickSpec{Rounds: 6}
		if err := quick.Validate(); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: quick budget of 6 rounds: err = %v, want ErrInvalid", kind, err)
		}
	}
	rush := probeSpec("imitation")
	rush.Rounds = 200000
	rush.Events = []events.Event{
		{Round: 2, Every: 4, Kind: events.LatencyScale, Resource: 1, Factor: 4},
		{Round: 4, Every: 4, Kind: events.LatencyScale, Resource: 1, Factor: 0.25},
	}
	if err := rush.Validate(); err != nil {
		t.Fatalf("×4/×¼ rush hour over 200000 rounds: %v", err)
	}
}
