package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"congame/internal/checkpoint"
	"congame/internal/dynamics"
	"congame/internal/fluid"
)

// ErrSuspended reports a checkpointed run that stopped on context
// cancellation after persisting its progress; invoking Run again with the
// same spec and state directory resumes it.
var ErrSuspended = errors.New("scenario: run suspended")

// CheckpointConfig configures a checkpointed Run's persistence
// (Options.Checkpoint).
type CheckpointConfig struct {
	// Dir is the state directory holding the progress manifest
	// (checkpoint.json). Required; created if missing.
	Dir string
	// Every is the mid-replication snapshot cadence in rounds for the
	// engine and fluid families; ≤ 0 selects DefaultCheckpointEvery.
	// Snapshot cadence never changes results — only how much work a crash
	// can lose.
	Every int
}

// DefaultCheckpointEvery is the snapshot cadence when CheckpointConfig
// leaves Every unset.
const DefaultCheckpointEvery = 200

// manifestName is the single progress file inside the state directory.
// Everything — the spec fingerprint, completed replication results, and
// the in-flight binary snapshots — lives in this one atomically replaced
// file, so no crash window can leave the pieces inconsistent with each
// other.
const manifestName = "checkpoint.json"

// statsRecord is dynamics.RoundStats with floats as IEEE-754 bit
// patterns, so a result survives the JSON round trip bit for bit (and NaN
// survives at all).
type statsRecord struct {
	Round          int    `json:"round"`
	Players        int    `json:"players"`
	Movers         int    `json:"movers"`
	NewStrategies  int    `json:"new_strategies"`
	PotentialBits  uint64 `json:"potential_bits"`
	AvgLatencyBits uint64 `json:"avg_latency_bits"`
	MaxLatencyBits uint64 `json:"max_latency_bits"`
}

func toStatsRecord(r dynamics.RoundStats) statsRecord {
	return statsRecord{
		Round:          r.Round,
		Players:        r.Players,
		Movers:         r.Movers,
		NewStrategies:  r.NewStrategies,
		PotentialBits:  math.Float64bits(r.Potential),
		AvgLatencyBits: math.Float64bits(r.AvgLatency),
		MaxLatencyBits: math.Float64bits(r.MaxLatency),
	}
}

func (r statsRecord) stats() dynamics.RoundStats {
	return dynamics.RoundStats{
		Round:         r.Round,
		Players:       r.Players,
		Movers:        r.Movers,
		NewStrategies: r.NewStrategies,
		Potential:     math.Float64frombits(r.PotentialBits),
		AvgLatency:    math.Float64frombits(r.AvgLatencyBits),
		MaxLatency:    math.Float64frombits(r.MaxLatencyBits),
	}
}

// runRecord is dynamics.RunResult in manifest form.
type runRecord struct {
	Rounds     int         `json:"rounds"`
	Converged  bool        `json:"converged"`
	TotalMoves int         `json:"total_moves"`
	Final      statsRecord `json:"final"`
}

func toRunRecord(r dynamics.RunResult) runRecord {
	return runRecord{Rounds: r.Rounds, Converged: r.Converged, TotalMoves: r.TotalMoves, Final: toStatsRecord(r.Final)}
}

func (r runRecord) result() dynamics.RunResult {
	return dynamics.RunResult{Rounds: r.Rounds, Converged: r.Converged, TotalMoves: r.TotalMoves, Final: r.Final.stats()}
}

// driftRecord is fluid.Drift in manifest form (bit-exact floats).
type driftRecord struct {
	SupLinfBits   uint64 `json:"sup_linf_bits"`
	SupL1Bits     uint64 `json:"sup_l1_bits"`
	FinalLinfBits uint64 `json:"final_linf_bits"`
	FinalL1Bits   uint64 `json:"final_l1_bits"`
	Rounds        int    `json:"rounds"`
}

func toDriftRecord(d fluid.Drift) driftRecord {
	return driftRecord{
		SupLinfBits:   math.Float64bits(d.SupLinf),
		SupL1Bits:     math.Float64bits(d.SupL1),
		FinalLinfBits: math.Float64bits(d.FinalLinf),
		FinalL1Bits:   math.Float64bits(d.FinalL1),
		Rounds:        d.Rounds,
	}
}

func (r driftRecord) drift() fluid.Drift {
	return fluid.Drift{
		SupLinf:   math.Float64frombits(r.SupLinfBits),
		SupL1:     math.Float64frombits(r.SupL1Bits),
		FinalLinf: math.Float64frombits(r.FinalLinfBits),
		FinalL1:   math.Float64frombits(r.FinalL1Bits),
		Rounds:    r.Rounds,
	}
}

// repRecord is one completed replication.
type repRecord struct {
	Cell   int          `json:"cell"`
	Rep    int          `json:"rep"`
	Result runRecord    `json:"result"`
	Drift  *driftRecord `json:"drift,omitempty"`
}

// snapRecord is one in-flight mid-replication snapshot: which (cell, rep)
// it belongs to, the stats of the last completed round (so a resume that
// steps zero further rounds still reports the right Final), and the
// encoded checkpoint.Snapshot (JSON base64).
type snapRecord struct {
	Cell int         `json:"cell"`
	Rep  int         `json:"rep"`
	Last statsRecord `json:"last"`
	Data []byte      `json:"data"`
}

// manifest is the checkpoint.json schema. Fingerprint pins the effective
// spec the progress belongs to; a resume under a different spec is
// rejected rather than silently mixing trajectories. Snaps holds at most
// one snapshot per (cell, rep): one for each replication that was running
// when it was last saved.
type manifest struct {
	Fingerprint string       `json:"fingerprint"`
	Done        []repRecord  `json:"done"`
	Snaps       []snapRecord `json:"snapshots,omitempty"`

	// mu serializes inflight, persist, record and save: a cell's
	// replications run in parallel and share the one manifest file.
	mu    sync.Mutex
	path  string // the manifest file inside the state directory
	every int    // mid-replication snapshot cadence in rounds
}

// fingerprint hashes the effective spec's JSON with Par and Workers
// cleared: both are output-invariant (DESIGN.md §4), so a resume may
// change them, while a change to any other field changes the trajectories
// or the table the recorded progress belongs to.
func fingerprint(s *Spec) (string, error) {
	f := *s
	f.Par, f.Workers = 0, 0
	data, err := json.Marshal(&f)
	if err != nil {
		return "", fmt.Errorf("scenario: checkpoint fingerprint: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// openManifest loads the manifest in cfg.Dir, or starts an empty one, and
// checks that it belongs to the effective spec s.
func openManifest(cfg CheckpointConfig, s *Spec) (*manifest, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("%w: checkpointed run needs a state directory", ErrInvalid)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	fp, err := fingerprint(s)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.Dir, manifestName)
	m, err := loadManifest(path)
	if err != nil {
		return nil, err
	}
	if m == nil {
		m = &manifest{Fingerprint: fp}
	} else if m.Fingerprint != fp {
		// A manifest without a fingerprint was written by an older build;
		// it is rejected the same way.
		return nil, fmt.Errorf("%w: state directory %s holds progress for a different spec, or from an older manifest format, not this spec", ErrInvalid, cfg.Dir)
	}
	m.path = path
	m.every = cfg.Every
	if m.every <= 0 {
		m.every = DefaultCheckpointEvery
	}
	// The traced replication must re-run on resume so the recorder holds
	// the full trajectory; determinism makes the re-run result identical
	// to the recorded one, so dropping the record is safe.
	if s.Trace != nil {
		kept := m.Done[:0]
		for _, r := range m.Done {
			if r.Rep != s.Trace.Rep {
				kept = append(kept, r)
			}
		}
		m.Done = kept
		m.Snaps = slices.DeleteFunc(m.Snaps, func(r snapRecord) bool { return r.Rep == s.Trace.Rep })
	}
	return m, nil
}

// find returns the completed record for (cell, rep), if any; a nil
// manifest (checkpointing off) holds none. It runs before a cell's
// replications start, so it takes no lock.
func (m *manifest) find(cell, rep int) *repRecord {
	if m == nil {
		return nil
	}
	for i := range m.Done {
		if m.Done[i].Cell == cell && m.Done[i].Rep == rep {
			return &m.Done[i]
		}
	}
	return nil
}

// record appends a completed replication (with its drift summary when
// drifts is non-nil), drops its in-flight snapshot, and saves.
func (m *manifest) record(cell, rep int, res dynamics.RunResult, drifts []fluid.Drift) error {
	rec := repRecord{Cell: cell, Rep: rep, Result: toRunRecord(res)}
	if drifts != nil {
		dr := toDriftRecord(drifts[rep])
		rec.Drift = &dr
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Done = append(m.Done, rec)
	if i := m.snapIndex(cell, rep); i >= 0 {
		m.Snaps = slices.Delete(m.Snaps, i, i+1)
	}
	return m.save()
}

// snapIndex returns the index of (cell, rep)'s snapshot in Snaps, or -1.
func (m *manifest) snapIndex(cell, rep int) int {
	return slices.IndexFunc(m.Snaps, func(r snapRecord) bool { return r.Cell == cell && r.Rep == rep })
}

// inflight returns the decoded snapshot of (cell, rep) and the stats of
// its last completed round, or a nil snapshot when the manifest holds
// none. A snapshot that fails to decode (CRC mismatch, truncation,
// unknown format version) is dropped, so its replication re-runs from
// round 0 instead of failing every later resume; the other replications'
// snapshots are untouched.
func (m *manifest) inflight(cell, rep int) (*checkpoint.Snapshot, dynamics.RoundStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := m.snapIndex(cell, rep)
	if i < 0 {
		return nil, dynamics.RoundStats{}
	}
	snap, err := checkpoint.Decode(m.Snaps[i].Data)
	if err != nil {
		m.Snaps = slices.Delete(m.Snaps, i, i+1)
		return nil, dynamics.RoundStats{}
	}
	return snap, m.Snaps[i].Last.stats()
}

// persist stores (cell, rep)'s mid-replication snapshot in place of its
// previous one and saves.
func (m *manifest) persist(snap *checkpoint.Snapshot, cell, rep int, last dynamics.RoundStats) error {
	r := snapRecord{Cell: cell, Rep: rep, Last: toStatsRecord(last), Data: snap.Encode()}
	m.mu.Lock()
	defer m.mu.Unlock()
	if i := m.snapIndex(cell, rep); i >= 0 {
		m.Snaps[i] = r
	} else {
		m.Snaps = append(m.Snaps, r)
	}
	return m.save()
}

// save atomically replaces the manifest file through checkpoint.WriteBytes
// (temp + fsync + rename). Callers hold m.mu, or own m alone.
func (m *manifest) save() error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("scenario: checkpoint manifest: %w", err)
	}
	if err := checkpoint.WriteBytes(m.path, data); err != nil {
		return fmt.Errorf("scenario: checkpoint manifest: %w", err)
	}
	return nil
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("scenario: checkpoint manifest: %w", err)
	}
	m := &manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("scenario: checkpoint manifest %s: %w", path, err)
	}
	return m, nil
}

// runStepped executes one replication to completion through a manual step
// loop that writes a snapshot every m.every rounds and on cancellation,
// resuming from the manifest's snapshot of this (cell, rep) when it holds
// one. It polls ctx once per round.
func (c *cellRun) runStepped(ctx context.Context, rep int, d dynamics.Dynamics, cp dynamics.Checkpointable, stop dynamics.StopCondition) (dynamics.RunResult, error) {
	s, m, cell := c.s, c.m, c.cell.Index
	rounds, streak := 0, 0
	var last dynamics.RoundStats

	if snap, snapLast := m.inflight(cell, rep); snap != nil {
		if err := cp.Restore(snap); err != nil {
			return dynamics.RunResult{}, fmt.Errorf("cell %d rep %d: %w", cell, rep, err)
		}
		rounds = int(snap.Round)
		streak = int(snap.QuietStreak)
		last = snapLast
		// Re-prime the only stateful stop condition: feed the fresh
		// "quiet" counter the trailing zero-migration streak the
		// interrupted run had seen. The streak is strictly below the stop
		// threshold (the run would have stopped otherwise), so priming
		// never fires.
		if stop != nil && s.Stop != nil && s.Stop.Kind == "quiet" {
			for i := 0; i < streak; i++ {
				stop(d, dynamics.RoundStats{Movers: 0})
			}
		}
	} else {
		// The pre-run stop probe, exactly as Dynamics.Run performs it
		// (and with its early-return RunResult). A resumed run skips the
		// probe: its original run already performed it, and the families'
		// probe guards key off Round < 0, which no longer holds.
		probe := d.Run(0, stop)
		if probe.Converged || s.Rounds <= 0 {
			return probe, nil
		}
		last = probe.Final
	}

	converged := false
	for rounds < s.Rounds {
		if err := ctx.Err(); err != nil {
			if serr := m.persist(cp.Capture(streak), cell, rep, last); serr != nil {
				return dynamics.RunResult{}, serr
			}
			return dynamics.RunResult{}, fmt.Errorf("%w at cell %d rep %d round %d: %w", ErrSuspended, cell, rep, rounds, err)
		}
		last = d.Step()
		rounds++
		if last.Movers == 0 {
			streak++
		} else {
			streak = 0
		}
		if stop != nil && stop(d, last) {
			converged = true
			break
		}
		if rounds%m.every == 0 && rounds < s.Rounds {
			if err := m.persist(cp.Capture(streak), cell, rep, last); err != nil {
				return dynamics.RunResult{}, err
			}
		}
	}
	return dynamics.RunResult{Rounds: rounds, Converged: converged, TotalMoves: cp.TotalMoves(), Final: last}, nil
}
