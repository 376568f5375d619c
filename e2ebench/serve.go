package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"congame/internal/obs"
	"congame/internal/serve"
)

// serveClients is the number of closed-loop HTTP clients of serve-jobs.
const serveClients = 2

// opTimeout bounds one job from submission to result, so a wedged daemon
// fails the op instead of hanging the run.
const opTimeout = 150 * time.Second

// daemon is an in-process serve.Server behind httptest on loopback.
type daemon struct {
	srv *serve.Server
	ts  *httptest.Server
	dir string
}

// startDaemon starts a daemon with cmd/serve's defaults — one job at a
// time, a queue of 64, a checkpoint every 200 rounds, which the zero
// values select — on a state directory under the checkout.
func startDaemon(dir string, reg *obs.Registry) (*daemon, error) {
	srv, err := serve.New(serve.Config{StateDir: dir, Registry: reg})
	if err != nil {
		return nil, err
	}
	return &daemon{srv: srv, ts: httptest.NewServer(srv), dir: dir}, nil
}

// close stops the HTTP server and the daemon and removes the state.
func (d *daemon) close() error {
	d.ts.Close()
	if err := d.srv.Close(); err != nil {
		return err
	}
	return os.RemoveAll(d.dir)
}

// jobRecord is the part of GET /v1/jobs/{id} the benchmark reads.
type jobRecord struct {
	ID       string     `json:"id"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
}

// jobTiming is what one job's client saw.
type jobTiming struct {
	start          time.Time
	submit, result float64 // POST and GET result round trips, seconds
	firstEvent     time.Time
	endFrame       time.Time
	// Read by traced jobs only.
	rec                     jobRecord
	manifest, journal, rows int64
}

// call makes one request and hands the body of a response with the wanted
// status to read; any other status is an error quoting the body.
func (d *daemon) call(ctx context.Context, method, url string, body []byte, want int, read func(io.Reader) error) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	resp, err := d.ts.Client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, url, resp.StatusCode, want, bytes.TrimSpace(msg))
	}
	if err := read(resp.Body); err != nil {
		return err
	}
	// Drain so the connection is reused.
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func decodeInto(v any) func(io.Reader) error {
	return func(r io.Reader) error { return json.NewDecoder(r).Decode(v) }
}

// job is one serve-jobs op: POST the spec (202), follow /events to the
// end frame (status done), GET the CSV and compare it with the pair's
// reference. A traced job also records spans, reads the job record and
// sizes the job's manifest and journal.
func (d *daemon) job(ctx context.Context, p *pair, quick bool, tr *tracer, op int) (*jobTiming, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	jt := &jobTiming{start: time.Now()}
	span := func(string) func() { return func() {} }
	if tr != nil {
		root := tr.begin("serve.job", op, 0)
		defer tr.end(root)
		span = func(name string) func() {
			id := tr.begin(name, op, root)
			return func() { tr.end(id) }
		}
	}

	url := d.ts.URL + "/v1/jobs"
	if quick {
		url += "?quick=1"
	}
	var rec jobRecord
	end := span("serve.submit")
	err := d.call(ctx, http.MethodPost, url, p.raw, http.StatusAccepted, decodeInto(&rec))
	end()
	jt.submit = time.Since(jt.start).Seconds()
	if err != nil {
		return nil, fmt.Errorf("submit %s: %w", p.name, err)
	}

	end = span("serve.events")
	status, err := d.follow(ctx, rec.ID, jt)
	end()
	if err != nil {
		return nil, err
	}
	if status != "done" {
		return nil, fmt.Errorf("job %s (%s) ended %s", rec.ID, p.name, status)
	}

	var csv []byte
	end = span("serve.result")
	t0 := time.Now()
	err = d.call(ctx, http.MethodGet, d.ts.URL+"/v1/jobs/"+rec.ID+"/result?format=csv", nil, http.StatusOK,
		func(r io.Reader) (err error) { csv, err = io.ReadAll(r); return err })
	jt.result = time.Since(t0).Seconds()
	end()
	if err != nil {
		return nil, fmt.Errorf("result %s: %w", rec.ID, err)
	}
	if err := checkCSV(p, string(csv)); err != nil {
		return nil, fmt.Errorf("job %s: %w", rec.ID, err)
	}
	if tr == nil {
		return jt, nil
	}

	end = span("serve.status")
	err = d.call(ctx, http.MethodGet, d.ts.URL+"/v1/jobs/"+rec.ID, nil, http.StatusOK, decodeInto(&jt.rec))
	end()
	if err != nil {
		return nil, fmt.Errorf("status %s: %w", rec.ID, err)
	}
	if jt.rec.Started == nil || jt.rec.Finished == nil {
		return nil, fmt.Errorf("job %s record lacks started/finished times", rec.ID)
	}
	dir := filepath.Join(d.dir, "jobs", rec.ID)
	fi, err := os.Stat(filepath.Join(dir, "state", "checkpoint.json"))
	if err != nil {
		return nil, err
	}
	jt.manifest = fi.Size()
	journal, err := os.ReadFile(filepath.Join(dir, "journal.ndjson"))
	if err != nil {
		return nil, err
	}
	jt.journal, jt.rows = int64(len(journal)), int64(bytes.Count(journal, []byte("\n")))
	return jt, nil
}

// follow reads the job's SSE stream until its end frame and returns the
// terminal status. The daemon closes the stream of a client that falls
// behind; follow then reconnects, and the replayed history is not a first
// frame again.
func (d *daemon) follow(ctx context.Context, id string, jt *jobTiming) (string, error) {
	const attempts = 3
	for i := 0; i < attempts; i++ {
		var status string
		err := d.call(ctx, http.MethodGet, d.ts.URL+"/v1/jobs/"+id+"/events", nil, http.StatusOK, func(r io.Reader) error {
			br := bufio.NewReader(r)
			inEnd := false
			for {
				line, err := br.ReadString('\n')
				if errors.Is(err, io.EOF) {
					return nil
				}
				if err != nil {
					return err
				}
				line = strings.TrimSuffix(line, "\n")
				data, isData := strings.CutPrefix(line, "data: ")
				switch {
				case line == "event: end":
					inEnd = true
				case isData && inEnd:
					jt.endFrame = time.Now()
					var frame struct {
						Status string `json:"status"`
					}
					if err := json.Unmarshal([]byte(data), &frame); err != nil {
						return fmt.Errorf("end frame %q: %w", data, err)
					}
					status = frame.Status
					return nil
				case isData && jt.firstEvent.IsZero():
					jt.firstEvent = time.Now()
				}
			}
		})
		if err != nil {
			return "", fmt.Errorf("events %s: %w", id, err)
		}
		if status != "" {
			return status, nil
		}
	}
	return "", fmt.Errorf("events %s: stream closed before its end frame %d times", id, attempts)
}

// serveAgg sums the traced jobs' timings and file sizes.
type serveAgg struct {
	mu                                              sync.Mutex
	submit, result, queueWait, run, firstEvent, lag float64
	ref                                             float64
	manifest, journal, rows                         int64
}

func (a *serveAgg) add(p *pair, jt *jobTiming) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.submit += jt.submit
	a.result += jt.result
	a.queueWait += jt.rec.Started.Sub(jt.rec.Created).Seconds()
	a.run += jt.rec.Finished.Sub(*jt.rec.Started).Seconds()
	a.firstEvent += jt.firstEvent.Sub(jt.start).Seconds()
	a.lag += jt.endFrame.Sub(*jt.rec.Finished).Seconds()
	a.ref += p.refSeconds
	a.manifest += jt.manifest
	a.journal += jt.journal
	a.rows += jt.rows
}

// runServe is the serve-jobs workload: serveClients closed-loop clients
// submit the pairs in rotation to one in-process daemon, each job's CSV
// checked against the same par-1 reference sweep-mix uses.
func runServe(cfg config) (res *results, err error) {
	res = newResults(cfg.Workload)
	ctx := context.Background()
	var reg *obs.Registry
	if cfg.Trace {
		reg = obs.NewRegistry()
	}
	var (
		pairs  []*pair
		d      *daemon
		starts int
	)
	setups, err := timeSetups(cfg.SetupReps, func() (err error) {
		if pairs, err = loadPairs(cfg, nil); err != nil {
			return err
		}
		starts++
		d, err = startDaemon(filepath.Join(cfg.Work, fmt.Sprintf("serve-state-%d-%d", os.Getpid(), starts)), reg)
		return err
	}, func() error {
		err := d.close()
		d = nil
		return err
	})
	defer func() {
		if d != nil {
			err = errors.Join(err, d.close())
		}
	}()
	if err != nil {
		return nil, err
	}
	if err := runReferences(ctx, cfg, pairs); err != nil {
		return nil, err
	}
	op := func(tr *tracer, agg *serveAgg) func(i int) error {
		return func(i int) error {
			p := pairs[i%len(pairs)]
			jt, err := d.job(ctx, p, cfg.Quick, tr, i)
			if err == nil && agg != nil {
				agg.add(p, jt)
			}
			return err
		}
	}
	if !cfg.Trace {
		l := closedLoop(serveClients, seconds(cfg.Seconds), cfg.MinOps, 0, op(nil, nil))
		res.countOps(l)
		res.byInput(l, func(i int) string { return pairs[i%len(pairs)].name })
		return res, res.setE2E(setups, l)
	}

	// Traced: one rotation untraced, then the same rotation traced, with
	// the registry read before and after the traced one.
	count := len(pairs)
	plain := closedLoop(serveClients, 0, count, count, op(nil, nil))
	res.countOps(plain)
	before, err := readRegistry(reg)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	agg := &serveAgg{}
	traced := closedLoop(serveClients, 0, count, count, op(tr, agg))
	res.countOps(traced)
	after, err := readRegistry(reg)
	if err != nil {
		return nil, err
	}
	sums := after.minus(before)
	ops := float64(count)
	res.setCorePhases(sums, ops, playersOf(pairs, count))
	res.set("scenario.cell_s", sums.cells/ops, "Σ sweep_cell_seconds ÷ ops")
	res.set("scenario.self_s", agg.run/ops-sums.cells/ops, "serve.run_s − cell_s: RunCheckpointed outside its cells, plus result writes")
	res.set("scenario.reps", sums.reps, "exact, sweep_reps_done_total")
	res.set("scenario.checkpointed_ratio", ratio(agg.run, agg.ref),
		fmt.Sprintf("Σ serve.run_s %.4fs ÷ Σ par-1 scenario.Run reference %.4fs", agg.run, agg.ref))
	res.set("serve.submit_s", agg.submit/ops, "POST round trip")
	res.set("serve.result_s", agg.result/ops, "GET result round trip")
	res.set("serve.queue_wait_s", agg.queueWait/ops, "started − created")
	res.set("serve.run_s", agg.run/ops, "finished − started")
	res.set("serve.first_event_s", agg.firstEvent/ops, "submit → first SSE data frame")
	res.set("serve.stream_lag_s", agg.lag/ops, "finished → end frame received")
	res.set("checkpoint.manifest_bytes", float64(agg.manifest), "exact, Σ final checkpoint.json sizes")
	res.set("obs.journal_bytes", float64(agg.journal), "Σ journal.ndjson sizes; phase rows carry ns timings, so not exact")
	res.set("obs.journal_rows", float64(agg.rows), "exact, Σ journal.ndjson lines")
	res.set("trace.overhead_frac", ratio(traced.total(), plain.total())-1,
		fmt.Sprintf("traced %.4fs ÷ untraced %.4fs over the same %d jobs, minus 1", traced.total(), plain.total(), count))
	res.unavailable("events.firings", "the daemon reports firings only to the journal, for replication 0")
	res.unavailable("dynamics.self_s", "the adapter is called inside the daemon, not by the benchmark")
	res.unavailable("core.worker_speedup", "measured on rush-4m, where the instance is large enough to matter")
	res.unavailable("workload.build_s", "instances are built inside the daemon's job")
	res.unavailable("scenario.parse_s", "the daemon parses inside the POST handler; counted in serve.submit_s")
	res.unavailable("scenario.rep_overhead_s", "RunCheckpointed runs replications without the runner pool's busy counter")
	for _, m := range []string{"runner.busy_s", "runner.queue_wait_s", "runner.utilization"} {
		res.unavailable(m, "not reached: RunCheckpointed runs replications in sequence, without the runner pool")
	}
	return res, tr.write(spanPath(cfg), res, cfg)
}
