#!/bin/sh
# serve-smoke: end-to-end kill-and-resume check of the simulation daemon
# (the CI serve-smoke job; run locally via `make serve-smoke`).
#
#   start daemon -> submit examples/scenarios/e2-monomial-singletons.json
#   -> kill the daemon mid-run (SIGTERM; every running replication
#      suspends and checkpoints) -> count the in-flight snapshots
#   -> restart on the same state dir -> follow SSE to completion
#   -> assert the final table is byte-identical to cmd/sweep's output
#   -> validate the live /metrics scrape with cmd/metricscheck.
#
# A tight -checkpoint-every makes the run slow enough (one fsync per
# snapshot) that the kill lands mid-run; if the job still finishes first
# the script fails loudly rather than silently skipping the resume leg.
set -eu

SPEC=examples/scenarios/e2-monomial-singletons.json
EVERY=${SERVE_SMOKE_EVERY:-5}

WORK=$(mktemp -d)
STATE="$WORK/state"
PIDFILE="$WORK/serve.pid"

cleanup() {
    if [ -f "$PIDFILE" ]; then
        kill "$(cat "$PIDFILE")" 2>/dev/null || true
        wait "$(cat "$PIDFILE")" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "== build"
go build -o "$WORK/serve" ./cmd/serve
go build -o "$WORK/sweep" ./cmd/sweep

start_daemon() {
    "$WORK/serve" -addr 127.0.0.1:0 -state "$STATE" -checkpoint-every "$EVERY" \
        2>"$WORK/serve.log" &
    echo $! >"$PIDFILE"
    # The daemon prints "[serve: listening on http://ADDR, ...]" once up.
    i=0
    while :; do
        ADDR=$(sed -n 's/.*listening on http:\/\/\([^,]*\),.*/\1/p' "$WORK/serve.log")
        [ -n "$ADDR" ] && break
        i=$((i + 1))
        [ "$i" -gt 100 ] && { echo "daemon never came up"; cat "$WORK/serve.log"; exit 1; }
        sleep 0.1
    done
    echo "== daemon up on $ADDR"
}

status_of() {
    curl -sf "http://$ADDR/v1/jobs/$1" | sed -n 's/.*"status": *"\([a-z]*\)".*/\1/p'
}

start_daemon

echo "== submit $SPEC"
JOB=$(curl -sf -X POST --data-binary @"$SPEC" "http://$ADDR/v1/jobs" |
    sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
[ -n "$JOB" ] || { echo "submit failed"; exit 1; }
echo "   job $JOB"

# Kill the daemon as soon as the job is running (tight poll, no sleep:
# the -checkpoint-every fsyncs stretch the run to several seconds).
while :; do
    ST=$(status_of "$JOB")
    [ "$ST" = "queued" ] && continue
    [ "$ST" = "running" ] && break
    echo "FAIL: job reached '$ST' before the kill could land mid-run"
    echo "      (lower SERVE_SMOKE_EVERY to slow the run)"
    exit 1
done
echo "== job running; SIGTERM mid-run"
kill -TERM "$(cat "$PIDFILE")"
wait "$(cat "$PIDFILE")" 2>/dev/null || true
rm -f "$PIDFILE"

SUSPENDED=$(sed -n 's/.*"status": *"\([a-z]*\)".*/\1/p' "$STATE/jobs/$JOB/job.json")
if [ "$SUSPENDED" != "suspended" ]; then
    echo "FAIL: job status after kill is '$SUSPENDED', want 'suspended'"
    echo "      (the kill must land mid-run; lower SERVE_SMOKE_EVERY to slow the run)"
    exit 1
fi
# Each replication running at the kill leaves one snapshot in the
# manifest; a suspension that left none would resume nothing mid-run.
SNAPS=$(tr -d ' \n' <"$STATE/jobs/$JOB/state/checkpoint.json" | grep -o '"snapshots":\[.*' | grep -o '"cell":' | wc -l)
echo "== job suspended with $SNAPS in-flight snapshot(s) on disk"
if [ "$SNAPS" -eq 0 ]; then
    echo "FAIL: the suspended job's manifest holds no in-flight snapshot"
    exit 1
fi

echo "== restart on the same state dir"
start_daemon

echo "== follow SSE to completion"
# The stream replays the journal (spanning the kill) and ends with the
# terminal frame once the resumed job finishes.
curl -sN --max-time 300 "http://$ADDR/v1/jobs/$JOB/events" >"$WORK/events.sse" || true
grep -q '"t":"run-start"' "$WORK/events.sse" || { echo "FAIL: SSE lacks run-start"; exit 1; }
grep -q '"t":"round"' "$WORK/events.sse" || { echo "FAIL: SSE lacks round rows"; exit 1; }
grep -q '^event: end' "$WORK/events.sse" || { echo "FAIL: SSE lacks terminal frame"; exit 1; }

FINAL=$(status_of "$JOB")
[ "$FINAL" = "done" ] || { echo "FAIL: final status '$FINAL', want 'done'"; exit 1; }
RESUMES=$(curl -sf "http://$ADDR/v1/jobs/$JOB" | sed -n 's/.*"resumes": *\([0-9]*\).*/\1/p')
echo "== job done after $RESUMES resume(s)"

echo "== compare the resumed result against cmd/sweep"
curl -sf "http://$ADDR/v1/jobs/$JOB/result?format=csv" >"$WORK/got.csv"
"$WORK/sweep" -spec "$SPEC" -out "$WORK/want.csv" >/dev/null
if ! cmp "$WORK/got.csv" "$WORK/want.csv"; then
    echo "FAIL: resumed result differs from an uninterrupted cmd/sweep run"
    exit 1
fi
echo "   byte-identical"

echo "== validate the live metrics scrape"
curl -sf "http://$ADDR/metrics" | go run ./cmd/metricscheck -require \
    serve_jobs_submitted_total,serve_jobs_done_total,serve_jobs_suspended_total,serve_jobs_running,serve_jobs_queued,engine_rounds_total,engine_moves_total,engine_players,engine_phase_seconds,sweep_cells_total,sweep_cells_done_total,sweep_reps_done_total,sweep_cell_seconds,sweep_run_complete,runner_jobs_total,runner_job_seconds \
    -

echo "serve-smoke: OK"
