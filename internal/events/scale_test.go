package events_test

import (
	"errors"
	"strings"
	"testing"

	"congame/internal/events"
)

func mustSchedule(t *testing.T, evts ...events.Event) *events.Schedule {
	t.Helper()
	s, err := events.NewSchedule(evts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCheckScalingRefusesOutOfRangeProducts: the compounded factor of a
// link is multiplied out in firing order, and the first product outside
// (0, +Inf) fails naming the event, link and round.
func TestCheckScalingRefusesOutOfRangeProducts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		evts   []events.Event
		rounds int
		want   string
	}{
		{
			name:   "overflow",
			evts:   []events.Event{{Round: 1, Every: 1, Kind: events.LatencyScale, Resource: 0, Factor: 1e200}},
			rounds: 6,
			want:   "event 0 (latency-scale) at round 2: link 0's",
		},
		{
			name: "underflow on the second link",
			evts: []events.Event{
				{Round: 0, Every: 2, Kind: events.LatencyScale, Resource: 0, Factor: 4},
				{Round: 1, Every: 2, Kind: events.LatencyScale, Resource: 0, Factor: 0.25},
				{Round: 3, Every: 3, Kind: events.LatencyScale, Resource: 2, Factor: 1e-200},
			},
			rounds: 100,
			want:   "event 2 (latency-scale) at round 6: link 2's",
		},
		{
			name:   "slow growth over a huge budget",
			evts:   []events.Event{{Round: 0, Every: 1, Kind: events.LatencyScale, Resource: 1, Factor: 1.1}},
			rounds: 1 << 40,
			want:   "event 0 (latency-scale) at round 7447: link 1's",
		},
	} {
		err := mustSchedule(t, tc.evts...).CheckScaling(tc.rounds)
		if !errors.Is(err, events.ErrInvalid) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want ErrInvalid containing %q", tc.name, err, tc.want)
		}
	}
}

// TestCheckScalingAcceptsBoundedProducts: schedules whose products stay in
// range pass, however long the budget — the walk stops once a period's
// products repeat — and firings past the budget are not counted.
func TestCheckScalingAcceptsBoundedProducts(t *testing.T) {
	rush := []events.Event{
		{Round: 2, Every: 4, Kind: events.LatencyScale, Resource: 1, Factor: 4},
		{Round: 4, Every: 4, Kind: events.LatencyScale, Resource: 1, Factor: 0.25},
	}
	for _, tc := range []struct {
		name   string
		evts   []events.Event
		rounds int
	}{
		{"rush hour over 200000 rounds", rush, 200000},
		{"rush hour over a huge budget", rush, 1 << 62},
		{"inexact pair over a huge budget", []events.Event{
			{Round: 0, Every: 3, Kind: events.LatencyScale, Resource: 0, Factor: 3},
			{Round: 1, Every: 3, Kind: events.LatencyScale, Resource: 0, Factor: 1.0 / 3},
		}, 1 << 62},
		{"late one-shot", []events.Event{
			{Round: 0, Every: 4, Kind: events.LatencyScale, Resource: 0, Factor: 2},
			{Round: 2, Every: 4, Kind: events.LatencyScale, Resource: 0, Factor: 0.5},
			{Round: 1 << 40, Kind: events.LatencyScale, Resource: 3, Factor: 1e300},
		}, 1 << 50},
		{"overflow past the budget", []events.Event{
			{Round: 1, Every: 1, Kind: events.LatencyScale, Resource: 0, Factor: 1e200},
		}, 2},
	} {
		if err := mustSchedule(t, tc.evts...).CheckScaling(tc.rounds); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// TestCheckScalingBoundsItsWork: a schedule whose products neither leave
// the range nor repeat within the firing cap is refused instead of being
// multiplied out over its whole budget.
func TestCheckScalingBoundsItsWork(t *testing.T) {
	s := mustSchedule(t, events.Event{Round: 0, Every: 1, Kind: events.LatencyScale, Resource: 0, Factor: 1 + 0x1p-30})
	err := s.CheckScaling(1 << 50)
	if !errors.Is(err, events.ErrInvalid) || !strings.Contains(err.Error(), "steps to check") {
		t.Fatalf("err = %v, want the work-cap ErrInvalid", err)
	}
}
