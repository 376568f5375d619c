// Command e2ebench is the repository's end-to-end benchmark: one command
// that runs the three workloads BENCHMARK.json names in-process through
// the public APIs of dynamics/core, scenario and serve, checks every
// operation's output, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer breakdown) as one JSON line.
//
//	rush-4m     one caller steps dynamics.Engine.Step back to back on a
//	            2^22-player heavy-traffic instance with a recurring rush
//	            hour on one hot link (op = one round)
//	sweep-mix   one caller runs scenario.Run on the five committed example
//	            specs in rotation (op = one whole spec)
//	serve-jobs  two HTTP clients submit the same specs to an in-process
//	            serve.Server and follow each job to its CSV (op = one job)
//
// Build and run it through run.sh, which pins the build to the checkout:
//
//	bash e2ebench/run.sh --workload sweep-mix --seed 3 --seconds 20 --trace 0
//
// The last line of standard output is the result object
// {"correct","attempted","failed","metrics"}; the lines before it are a
// human-readable report with op counts, unavailable-metric reasons and
// the machine fingerprint. --workload all runs every workload, each in
// its own process so that peak memory does not carry over. cmd/bench
// remains the micro-benchmark and zero-allocation gate; this command
// measures whole operations.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config) (*results, error){
	"rush-4m":    runRush,
	"sweep-mix":  runSweep,
	"serve-jobs": runServe,
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"rush-4m", "sweep-mix", "serve-jobs"}

// config is one invocation's settings. The flags fill it at full size;
// the self-test fills it at tiny sizes.
type config struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	// Root is the checkout root; the example specs are read from
	// Root/examples/scenarios.
	Root string
	// Work is the scratch directory for the serve state and span files.
	Work string

	// Players and Links size the rush-4m instance (n and m).
	Players, Links int
	// MinOps is the fewest ops an untraced sweep-mix or serve-jobs run
	// completes, whatever Seconds says, so that p90 has at least ten
	// samples beyond it; a rush-4m pass is PassRounds ≥ MinOps rounds.
	MinOps int
	// PassRounds is the length of one rush-4m pass: the trajectory an
	// untraced run replays from a fresh instance while its budget lasts,
	// and each trajectory of the traced run.
	PassRounds int
	// SeedsPerSpec is how many rotations through the five example specs
	// the op list holds; a spec without a stop condition gets a derived
	// seed in each.
	SeedsPerSpec int
	// SetupReps is how many times set-up is repeated; setup_s is the
	// median.
	SetupReps int
	// Quick applies the specs' quick-mode overrides (self-test only).
	Quick bool
}

// fullSize returns the settings BENCHMARK.json's workloads are defined by.
func fullSize() config {
	return config{
		Players:      1 << 22,
		Links:        64,
		MinOps:       100,
		PassRounds:   100,
		SeedsPerSpec: 8,
		SetupReps:    5,
	}
}

func main() {
	cfg := fullSize()
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "rush-4m, sweep-mix, serve-jobs, or all")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "workload seed: derives every generated input")
	flag.Float64Var(&cfg.Seconds, "seconds", 20, "how long the timed phase of an untraced run lasts")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
	flag.StringVar(&cfg.Root, "root", ".", "checkout root holding examples/scenarios")
	flag.StringVar(&cfg.Work, "work", filepath.Join(".bench_build", "e2ebench"), "scratch directory for serve state and span files")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", trace))
	}
	cfg.Trace = trace == 1
	if cfg.Workload == "all" {
		if err := runAll(); err != nil {
			fail(err)
		}
		return
	}
	run, ok := workloads[cfg.Workload]
	if !ok {
		fail(fmt.Errorf("unknown --workload %q (want rush-4m, sweep-mix, serve-jobs, or all)", cfg.Workload))
	}
	if cfg.Seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive, got %v", cfg.Seconds))
	}
	if err := os.MkdirAll(cfg.Work, 0o755); err != nil {
		fail(err)
	}
	res, err := run(cfg)
	if err != nil {
		fail(err)
	}
	if err := res.print(os.Stdout, cfg); err != nil {
		fail(err)
	}
}

// runAll re-executes this binary once per workload with the same flags,
// so each workload's peak resident memory is its own process's.
func runAll() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloadOrder {
		args := []string{"--workload", w}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "--"+f.Name, f.Value.String())
			}
		})
		fmt.Printf("== %s\n", w)
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", w, err))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %v", failed)
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// results collects one run's metrics, with the notes the human-readable
// report shows beside them.
type results struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	errs      []string
	metrics   map[string]metric
	notes     map[string]string
	digest    string
	extra     []string // further report lines, such as the span summary
}

func newResults(workload string) *results {
	return &results{workload: workload, correct: true, metrics: map[string]metric{}, notes: map[string]string{}}
}

// set records a metric; its unit comes from the schema, and an unknown
// name is a bug in this file, caught by the self-test.
func (r *results) set(name string, v float64, note string) {
	unit, ok := units[name]
	if !ok {
		panic("e2ebench: metric " + name + " is not in the schema")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.reject("metric %s is %v", name, v)
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		r.notes[name] = note
	}
}

// unavailable records a metric the workload does not reach or that cannot
// be measured from outside the program: it reads 0 and the report says
// why.
func (r *results) unavailable(name, reason string) {
	r.set(name, 0, "unavailable: "+reason)
}

// countOps folds a loop's op counts and errors into the result.
func (r *results) countOps(l *loop) {
	r.attempted += len(l.lat)
	r.failed += l.failed
	r.errs = append(r.errs, l.errs...)
}

// reject marks the run incorrect with the reason.
func (r *results) reject(format string, args ...any) {
	r.correct = false
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// print writes the report and, as the last line, the result object. The
// metric set must be exactly the schema's end-to-end or per-layer list.
func (r *results) print(w io.Writer, cfg config) error {
	want := endToEnd
	if cfg.Trace {
		want = perLayer
	}
	for _, m := range want {
		if _, ok := r.metrics[m.name]; !ok {
			return fmt.Errorf("workload %s did not report metric %s", r.workload, m.name)
		}
	}
	if len(r.metrics) != len(want) {
		return fmt.Errorf("workload %s reported %d metrics, the schema lists %d", r.workload, len(r.metrics), len(want))
	}
	if r.attempted < 1 {
		return errors.New("no ops attempted")
	}
	if r.failed > 0 {
		r.correct = false
	}

	mode := "end-to-end, tracing off"
	if cfg.Trace {
		mode = "per-layer, traced run"
	}
	fmt.Fprintf(w, "# e2ebench %s seed=%d seconds=%g (%s)\n", r.workload, cfg.Seed, cfg.Seconds, mode)
	fp, err := json.Marshal(machineFingerprint(cfg.Work))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# fingerprint %s\n", fp)
	fmt.Fprintf(w, "# ops attempted=%d failed=%d failed_frac=%.6g correct=%v\n",
		r.attempted, r.failed, float64(r.failed)/float64(r.attempted), r.correct)
	if r.digest != "" {
		fmt.Fprintf(w, "# digest %s\n", r.digest)
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "# error %s\n", e)
	}
	for _, e := range r.extra {
		fmt.Fprintf(w, "# %s\n", e)
	}
	for _, m := range want {
		v := r.metrics[m.name]
		line := fmt.Sprintf("%-28s %14.6g %-6s", m.name, v.Value, v.Unit)
		if n := r.notes[m.name]; n != "" {
			line += "  " + n
		}
		fmt.Fprintf(w, "# %s\n", line)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
