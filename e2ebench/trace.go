package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a boundary the benchmark crosses, or a phase
// the engine's step timer measured inside such a call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Op     int    `json:"op"`     // shared by every span of one op; -1 for set-up
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory; write saves them when the
// run ends. It is safe for concurrent clients.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, op, parent int) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// add records a finished span whose bounds were measured elsewhere.
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return len(t.spans)
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	// Self is the summed duration minus the part of each span's interval
	// its children cover.
	Self float64 `json:"self_s"`
}

// summary aggregates the spans by name.
func (t *tracer) summary() map[string]*spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*spanStat{}
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		d := float64(s.End-s.Start) / 1e9
		st.Count++
		st.Total += d
		st.Self += d - float64(covered(s, children[s.ID]))/1e9
	}
	return out
}

// covered returns how many nanoseconds of s's interval the union of its
// children's intervals covers.
func covered(s span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, reach int64
	for _, x := range iv {
		if x[0] > reach {
			reach = x[0]
		}
		if x[1] > reach {
			total += x[1] - reach
			reach = x[1]
		}
	}
	return total
}

// write saves the spans and their per-name summary as JSON, then adds the
// summary to the report.
func (t *tracer) write(path string, r *results, cfg config) error {
	sum := t.summary()
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Workload    string               `json:"workload"`
		Seed        uint64               `json:"seed"`
		Fingerprint fingerprint          `json:"fingerprint"`
		Summary     map[string]*spanStat `json:"summary"`
		Spans       []span               `json:"spans"`
	}{cfg.Workload, cfg.Seed, machineFingerprint(cfg.Work), sum, t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	names := make([]string, 0, len(sum))
	for n := range sum {
		names = append(names, n)
	}
	sort.Strings(names)
	r.extra = append(r.extra, "spans written to "+path)
	for _, n := range names {
		s := sum[n]
		r.extra = append(r.extra, fmt.Sprintf("span %-26s count=%-5d total=%.6fs self=%.6fs", n, s.Count, s.Total, s.Self))
	}
	return nil
}
