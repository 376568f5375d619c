package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"congame/internal/obs"
)

// loop is the outcome of one closed-loop phase.
type loop struct {
	lat    []float64 // per-op latency in seconds, in completion order
	idx    []int     // the index of each op in lat
	failed int
	errs   []string // the first few failures, for the report
	wall   float64  // seconds from the phase's start to its last op's end
}

// maxErrs bounds how many op failures a loop keeps for the report.
const maxErrs = 5

// closedLoop runs op back to back on the given number of client
// goroutines: a client starts its next op only when its previous one has
// returned. Clients keep claiming ops while the budget lasts or fewer than
// minOps have been claimed, and never claim more than maxOps (0 = no cap);
// a zero budget with minOps = maxOps runs a fixed op count. Op i receives
// its index so that callers rotate through their inputs. An op that
// returns an error counts as failed.
func closedLoop(clients int, budget time.Duration, minOps, maxOps int, op func(i int) error) *loop {
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
		l    = &loop{}
	)
	start := time.Now()
	deadline := start.Add(budget)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if maxOps > 0 && next >= maxOps {
			return 0, false
		}
		if next >= minOps && !time.Now().Before(deadline) {
			return 0, false
		}
		next++
		return next - 1, true
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				t0 := time.Now()
				err := op(i)
				d := time.Since(t0).Seconds()
				mu.Lock()
				l.lat = append(l.lat, d)
				l.idx = append(l.idx, i)
				if err != nil {
					l.failed++
					if len(l.errs) < maxErrs {
						l.errs = append(l.errs, fmt.Sprintf("op %d: %v", i, err))
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	l.wall = time.Since(start).Seconds()
	return l
}

// add appends another phase's ops; the walls add up, so gaps between the
// phases are outside the timing.
func (l *loop) add(o *loop) {
	l.lat = append(l.lat, o.lat...)
	l.idx = append(l.idx, o.idx...)
	l.failed += o.failed
	l.errs = append(l.errs, o.errs...)
	l.wall += o.wall
}

// total is the summed latency of the loop's ops.
func (l *loop) total() float64 {
	s := 0.0
	for _, v := range l.lat {
		s += v
	}
	return s
}

// byInput adds one report line per input name with the ops' median
// latency, for workloads whose op i runs input name(i).
func (r *results) byInput(l *loop, name func(i int) string) {
	lat := map[string][]float64{}
	var order []string
	for k, i := range l.idx {
		n := name(i)
		if lat[n] == nil {
			order = append(order, n)
		}
		lat[n] = append(lat[n], l.lat[k])
	}
	for _, n := range order {
		r.extra = append(r.extra, fmt.Sprintf("op latency %-24s p50=%.4fs over %d ops", n, median(lat[n]), len(lat[n])))
	}
}

// seconds converts a --seconds value to a duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// timeSetups runs setup reps times and returns each duration in seconds.
// A collection runs before every repetition, outside the timing, so one
// repetition's garbage neither slows the next nor raises peak memory;
// teardown (optional) releases the previous repetition's resources, also
// outside the timing. The last repetition's result is the one kept.
func timeSetups(reps int, setup func() error, teardown func() error) ([]float64, error) {
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 && teardown != nil {
			if err := teardown(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	runtime.GC()
	return out, nil
}

// quantile returns the q-quantile of sorted values, interpolating linearly
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	h := q * float64(len(sorted)-1)
	lo := int(h)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setE2E records the end-to-end metrics of an untraced run from its
// set-up times and its timed loop, whose ops must already be counted.
func (r *results) setE2E(setup []float64, l *loop) error {
	n := len(l.lat)
	sorted := sortedCopy(l.lat)
	beyond := 0
	p90 := quantile(sorted, 0.9)
	for _, v := range sorted {
		if v > p90 {
			beyond++
		}
	}
	r.set("setup_s", median(setup), fmt.Sprintf("median of %d set-ups", len(setup)))
	r.set("ops_per_s", float64(n)/l.wall, fmt.Sprintf("%d ops in %.3f s", n, l.wall))
	r.set("op_p50_s", quantile(sorted, 0.5), fmt.Sprintf("%d ops", n))
	r.set("op_p90_s", p90, fmt.Sprintf("%d ops, %d beyond p90", n, beyond))
	r.set("ok_frac", 1-ratio(float64(r.failed), float64(r.attempted)),
		fmt.Sprintf("failed_frac=%.6g (%d of %d ops failed)", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted))
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mib", rss, "VmHWM of this process")
	return nil
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM line in /proc/self/status")
}

// registrySums is what the per-layer metrics read from an obs.Registry:
// the engine phase histograms' sums, the core move counter, and the sweep
// and runner families. Sums are in seconds.
type registrySums struct {
	corePre, coreSync, coreDecide, coreApply, coreStep float64
	coreMoves                                          float64
	fluidStep                                          float64
	cells, reps                                        float64
	runnerBusy, runnerQueueWait                        float64
}

// readRegistry snapshots the series registrySums holds through the
// registry's JSON rendering, which neither registers nor resets anything.
func readRegistry(reg *obs.Registry) (registrySums, error) {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return registrySums{}, err
	}
	var series []struct {
		Name   string            `json:"name"`
		Labels map[string]string `json:"labels"`
		Value  float64           `json:"value"`
		Sum    float64           `json:"sum"`
	}
	if err := json.Unmarshal(buf.Bytes(), &series); err != nil {
		return registrySums{}, fmt.Errorf("read registry: %w", err)
	}
	var s registrySums
	for _, x := range series {
		switch x.Name {
		case "engine_phase_seconds":
			switch x.Labels["backend"] + "/" + x.Labels["phase"] {
			case "core/pre_round":
				s.corePre = x.Sum
			case "core/sync":
				s.coreSync = x.Sum
			case "core/decide":
				s.coreDecide = x.Sum
			case "core/apply":
				s.coreApply = x.Sum
			case "core/step":
				s.coreStep = x.Sum
			case "fluid/step":
				s.fluidStep = x.Sum
			}
		case "engine_moves_total":
			if x.Labels["backend"] == "core" {
				s.coreMoves = x.Value
			}
		case "sweep_cell_seconds":
			s.cells = x.Sum
		case "sweep_reps_done_total":
			s.reps = x.Value
		case "runner_busy_nanoseconds_total":
			s.runnerBusy = x.Value / 1e9
		case "runner_queue_wait_seconds":
			s.runnerQueueWait = x.Sum
		}
	}
	return s, nil
}

// minus is the change from an earlier snapshot.
func (s registrySums) minus(b registrySums) registrySums {
	return registrySums{
		corePre: s.corePre - b.corePre, coreSync: s.coreSync - b.coreSync,
		coreDecide: s.coreDecide - b.coreDecide, coreApply: s.coreApply - b.coreApply,
		coreStep: s.coreStep - b.coreStep, coreMoves: s.coreMoves - b.coreMoves,
		fluidStep: s.fluidStep - b.fluidStep, cells: s.cells - b.cells, reps: s.reps - b.reps,
		runnerBusy: s.runnerBusy - b.runnerBusy, runnerQueueWait: s.runnerQueueWait - b.runnerQueueWait,
	}
}

// setCorePhases records the core engine's phase metrics from registry
// sums over ops operations that decided players players.
func (r *results) setCorePhases(s registrySums, ops, players float64) {
	r.set("core.step_s", s.coreStep/ops, "engine_phase_seconds{backend=core,phase=step}")
	r.set("core.decide_s", s.coreDecide/ops, "prng block fill + decide kernels")
	r.set("core.decide_ns_per_player", ratio(s.coreDecide*1e9, players),
		"players = Σ rounds × final n of the references' engine replications (approximate under churn)")
	r.set("core.move_frac", ratio(s.coreMoves, players), "engine_moves_total{backend=core} ÷ players decided")
	r.set("core.phase_cover", ratio(s.corePre+s.coreSync+s.coreDecide+s.coreApply, s.coreStep),
		"(pre-round + sync + decide + apply) ÷ step")
	r.set("game.sync_s", s.coreSync/ops, "")
	r.set("game.apply_s", s.coreApply/ops, "")
	r.set("events.pre_round_s", s.corePre/ops, "")
	r.set("fluid.step_s", s.fluidStep/ops, "engine_phase_seconds{backend=fluid,phase=step}")
}

// fingerprint identifies the machine and build a result came from.
type fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// PGO is the profile the binary was built with, "off" when none.
	PGO     string `json:"pgo"`
	L2      string `json:"l2"`
	L3      string `json:"l3"`
	WorkFS  string `json:"serve_state_fs"`
	WorkDir string `json:"serve_state_dir"`
}

func machineFingerprint(work string) fingerprint {
	fp := fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		PGO:        "off",
		L2:         cacheSize(2),
		L3:         cacheSize(3),
		WorkFS:     fsType(work),
		WorkDir:    work,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-pgo" && s.Value != "" {
				fp.PGO = filepath.Base(s.Value)
			}
		}
	}
	return fp
}

// cacheSize reads cpu0's unified or data cache size at a level from sysfs.
func cacheSize(level int) string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		read := func(f string) string {
			b, _ := os.ReadFile(filepath.Join(d, f))
			return strings.TrimSpace(string(b))
		}
		if read("level") == strconv.Itoa(level) && read("type") != "Instruction" {
			return read("size")
		}
	}
	return "unknown"
}

// fsType returns the type of the filesystem mounted closest above dir,
// from /proc/mounts.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, typ := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mnt := fields[1]
		under := abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/")
		if under && len(mnt) >= len(best) {
			best, typ = mnt, fields[2]
		}
	}
	return typ
}
