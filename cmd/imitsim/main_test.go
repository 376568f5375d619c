package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"congame/internal/scenario"
)

const quickstart = "../../examples/scenarios/quickstart.json"

// TestMain runs the command itself when IMITSIM_TEST_ARGS holds its
// newline-separated arguments, so the tests below can run imitsim as a
// subprocess of their own binary.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("IMITSIM_TEST_ARGS"); ok {
		os.Args = append([]string{"imitsim"}, strings.Split(args, "\n")...)
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// imitsim runs the command with args and returns its combined output and
// exit code.
func imitsim(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "IMITSIM_TEST_ARGS="+strings.Join(args, "\n"))
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return string(out), exit.ExitCode()
	}
	if err != nil {
		t.Fatalf("imitsim %v: %v", args, err)
	}
	return string(out), 0
}

// TestJournalWriteFailureExitsNonZero runs the command with its journal
// on /dev/full, where every write fails with ENOSPC. The rows sit in the
// journal's buffer until it is closed, so the failure shows only at
// Close, and the command must still exit non-zero and name the journal.
func TestJournalWriteFailureExitsNonZero(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	out, code := imitsim(t, "-spec", quickstart, "-journal", "/dev/full")
	if code == 0 {
		t.Fatalf("imitsim -journal /dev/full exited 0, want a non-zero exit; output:\n%s", out)
	}
	if !strings.Contains(out, "imitsim: journal:") {
		t.Fatalf("imitsim -journal /dev/full exited %d without naming the journal; output:\n%s", code, out)
	}
}

// TestTrajectoryMatchesSweep pins imitsim to scenario.Run: its -csv file is
// byte-identical to the trace scenario.Run records for replication 0 of the
// same spec, and its round and migration counts are that replication's
// result.
func TestTrajectoryMatchesSweep(t *testing.T) {
	spec, err := scenario.Load(quickstart)
	if err != nil {
		t.Fatal(err)
	}
	spec.Trace = &scenario.TraceSpec{}
	res, err := scenario.Run(context.Background(), spec, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.Cells[0].Trace.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}

	csv := filepath.Join(t.TempDir(), "trajectory.csv")
	out, code := imitsim(t, "-spec", quickstart, "-csv", csv)
	if code != 0 {
		t.Fatalf("imitsim exited %d; output:\n%s", code, out)
	}
	got, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("imitsim -csv differs from scenario.Run's rep-0 trace:\n got %s\nwant %s", got, want.Bytes())
	}
	r := res.Cells[0].Results[0]
	if line := fmt.Sprintf("ran %d rounds (%d migrations total)", r.Rounds, r.TotalMoves); !strings.Contains(out, line) {
		t.Errorf("imitsim output lacks %q (scenario.Run's rep 0):\n%s", line, out)
	}
}

// TestMultiCellSpecExits2: a sweep is cmd/sweep's job, and imitsim says so.
func TestMultiCellSpecExits2(t *testing.T) {
	out, code := imitsim(t, "-spec", "../../examples/scenarios/e2-monomial-singletons.json")
	if code != 2 || !strings.Contains(out, "cmd/sweep") {
		t.Fatalf("imitsim on a 9-cell spec exited %d, want 2 with a pointer to cmd/sweep; output:\n%s", code, out)
	}
}
