package obs

import (
	"testing"
	"time"

	"congame/internal/core"
)

func BenchmarkCounterAdd(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_seconds", "", DefTimeBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.0042)
	}
}

func BenchmarkJournalRound(b *testing.B) {
	j := NewJournal(discard{})
	s := core.RoundStats{Round: 1, Players: 65536, Movers: 12,
		Potential: 123.456, AvgLatency: 1.5, MaxLatency: 9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.Round(0, 0, s)
	}
}

func BenchmarkEngineStepTimer(b *testing.B) {
	r := NewRegistry()
	timer := NewPhaseMetrics(r, Phases{Backend: "bench", Names: corePhaseNames}).ObservePhases
	t := PhaseTimes{1: time.Microsecond, 2: 40 * time.Microsecond,
		3: 10 * time.Microsecond, 4: 52 * time.Microsecond}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		timer(0, t)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
