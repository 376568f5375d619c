package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"sync"

	"congame/internal/core"
)

// Journal appends structured NDJSON events — one JSON object per line —
// to an io.Writer, giving a run a machine-readable timeline: run/cell
// boundaries, per-round statistics, per-phase timings, and event-schedule
// firings. Writes go through a bounded bufio buffer and a mutex, and the
// encoder is a hand-rolled strconv append into a reused scratch buffer,
// so journaling a round does not allocate in the steady state and is safe
// from concurrent replications.
//
// Every event carries a "t" field (its type). Rows attributable to one
// replication carry "cell" and "rep"; negative indices omit the field
// (single-run tools journal with cell=-1, rep=-1). Non-finite floats
// render as null, keeping every line parseable by strict JSON decoders.
type Journal struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	c   io.Closer // non-nil when the journal owns the file
	buf []byte
	err error
}

// NewJournal wraps w; the caller keeps ownership of w (Close flushes but
// does not close it).
func NewJournal(w io.Writer) *Journal {
	return &Journal{bw: bufio.NewWriterSize(w, 64<<10)}
}

// OpenJournal creates (truncating) the NDJSON file at path; Close closes
// it.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: open journal: %w", err)
	}
	j := NewJournal(f)
	j.c = f
	return j, nil
}

// Err returns the first write error, if any; a failed journal drops
// subsequent events.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Flush drains the buffer to the underlying writer.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err == nil {
		j.err = j.bw.Flush()
	}
	return j.err
}

// Close flushes and, if the journal owns its file, closes it.
func (j *Journal) Close() error {
	err := j.Flush()
	if j.c != nil {
		if cerr := j.c.Close(); err == nil {
			err = cerr
		}
		j.c = nil
	}
	return err
}

// emit writes one finished line (without trailing newline) under the
// mutex. The scratch buffer in j.buf is reused across calls.
func (j *Journal) emitLocked() {
	if j.err != nil {
		return
	}
	j.buf = append(j.buf, '\n')
	if _, err := j.bw.Write(j.buf); err != nil {
		j.err = err
	}
}

// appendJSONString appends a quoted, escaped JSON string. Journal strings
// are cold-path (cell labels, event kinds), so the byte loop is fine.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c == '\n':
			dst = append(dst, '\\', 'n')
		case c == '\t':
			dst = append(dst, '\\', 't')
		case c == '\r':
			dst = append(dst, '\\', 'r')
		case c < 0x20:
			dst = append(dst, '\\', 'u', '0', '0',
				"0123456789abcdef"[c>>4], "0123456789abcdef"[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

// appendFloat appends v as a JSON number, or null when v is not finite.
func appendFloat(dst []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(dst, "null"...)
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

func appendCellRep(dst []byte, cell, rep int) []byte {
	if cell >= 0 {
		dst = append(dst, `,"cell":`...)
		dst = strconv.AppendInt(dst, int64(cell), 10)
	}
	if rep >= 0 {
		dst = append(dst, `,"rep":`...)
		dst = strconv.AppendInt(dst, int64(rep), 10)
	}
	return dst
}

// AppendRound appends the NDJSON round event for s (without trailing
// newline) to dst and returns the extended buffer. Negative cell/rep omit
// those fields. trace.Recorder's NDJSON output shares this encoding, so a
// journal and a trace written from the same run line up row for row.
func AppendRound(dst []byte, cell, rep int, s core.RoundStats) []byte {
	dst = append(dst, `{"t":"round"`...)
	dst = appendCellRep(dst, cell, rep)
	dst = append(dst, `,"round":`...)
	dst = strconv.AppendInt(dst, int64(s.Round), 10)
	dst = append(dst, `,"players":`...)
	dst = strconv.AppendInt(dst, int64(s.Players), 10)
	dst = append(dst, `,"movers":`...)
	dst = strconv.AppendInt(dst, int64(s.Movers), 10)
	dst = append(dst, `,"new_strategies":`...)
	dst = strconv.AppendInt(dst, int64(s.NewStrategies), 10)
	dst = append(dst, `,"potential":`...)
	dst = appendFloat(dst, s.Potential)
	dst = append(dst, `,"avg_latency":`...)
	dst = appendFloat(dst, s.AvgLatency)
	dst = append(dst, `,"max_latency":`...)
	dst = appendFloat(dst, s.MaxLatency)
	return append(dst, '}')
}

// Round journals one round's statistics.
func (j *Journal) Round(cell, rep int, s core.RoundStats) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.buf = AppendRound(j.buf[:0], cell, rep, s)
	j.emitLocked()
}

type journalObserver struct {
	j         *Journal
	cell, rep int
}

func (o journalObserver) Observe(s core.RoundStats) { o.j.Round(o.cell, o.rep, s) }

// RoundObserver returns a core.RoundObserver journaling every round under
// the given cell/rep attribution (negative = omitted).
func (j *Journal) RoundObserver(cell, rep int) core.RoundObserver {
	return journalObserver{j, cell, rep}
}

// PhaseTimer returns a PhaseTimer journaling one phase row per round for
// p's backend under the given cell/rep attribution: the round index the
// caller passes and one "<name>_s" field per named phase, in slot order.
// Round statistics are left to RoundObserver, so attaching both yields
// exactly one round row and one phase row per step.
func (j *Journal) PhaseTimer(cell, rep int, p Phases) PhaseTimer {
	return func(round int, t PhaseTimes) {
		j.mu.Lock()
		defer j.mu.Unlock()
		buf := append(j.buf[:0], `{"t":"phase"`...)
		buf = appendCellRep(buf, cell, rep)
		buf = append(buf, `,"backend":`...)
		buf = appendJSONString(buf, p.Backend)
		buf = append(buf, `,"round":`...)
		buf = strconv.AppendInt(buf, int64(round), 10)
		for i, name := range p.Names {
			buf = append(buf, ',', '"')
			buf = append(buf, name...)
			buf = append(buf, `_s":`...)
			buf = appendFloat(buf, t[i].Seconds())
		}
		j.buf = append(buf, '}')
		j.emitLocked()
	}
}

// EventFired journals one event-schedule firing: the pre-round index it
// fired before, its position in the schedule, and its kind.
func (j *Journal) EventFired(cell, rep, round, index int, kind string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	buf := append(j.buf[:0], `{"t":"event"`...)
	buf = appendCellRep(buf, cell, rep)
	buf = append(buf, `,"round":`...)
	buf = strconv.AppendInt(buf, int64(round), 10)
	buf = append(buf, `,"index":`...)
	buf = strconv.AppendInt(buf, int64(index), 10)
	buf = append(buf, `,"kind":`...)
	buf = appendJSONString(buf, kind)
	j.buf = append(buf, '}')
	j.emitLocked()
}

// RunStart journals the head of a sweep.
func (j *Journal) RunStart(name string, cells, reps int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	buf := append(j.buf[:0], `{"t":"run-start","name":`...)
	buf = appendJSONString(buf, name)
	buf = append(buf, `,"cells":`...)
	buf = strconv.AppendInt(buf, int64(cells), 10)
	buf = append(buf, `,"reps":`...)
	buf = strconv.AppendInt(buf, int64(reps), 10)
	j.buf = append(buf, '}')
	j.emitLocked()
}

// CellStart journals the start of one cell.
func (j *Journal) CellStart(cell int, label string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	buf := append(j.buf[:0], `{"t":"cell-start","cell":`...)
	buf = strconv.AppendInt(buf, int64(cell), 10)
	buf = append(buf, `,"label":`...)
	buf = appendJSONString(buf, label)
	j.buf = append(buf, '}')
	j.emitLocked()
}

// CellFinish journals the completion of one cell.
func (j *Journal) CellFinish(cell, reps int, seconds float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	buf := append(j.buf[:0], `{"t":"cell-finish","cell":`...)
	buf = strconv.AppendInt(buf, int64(cell), 10)
	buf = append(buf, `,"reps":`...)
	buf = strconv.AppendInt(buf, int64(reps), 10)
	buf = append(buf, `,"seconds":`...)
	buf = appendFloat(buf, seconds)
	j.buf = append(buf, '}')
	j.emitLocked()
}

// RunFinish journals the end of the sweep and flushes.
func (j *Journal) RunFinish(seconds float64) {
	j.mu.Lock()
	buf := append(j.buf[:0], `{"t":"run-finish","seconds":`...)
	buf = appendFloat(buf, seconds)
	j.buf = append(buf, '}')
	j.emitLocked()
	if j.err == nil {
		j.err = j.bw.Flush()
	}
	j.mu.Unlock()
}
