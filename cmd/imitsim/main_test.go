package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestJournalWriteFailureExitsNonZero runs the command with its journal
// on /dev/full, where every write fails with ENOSPC. The rows sit in the
// journal's buffer until it is closed, so the failure shows only at
// Close, and the command must still exit non-zero and name the journal.
// The test re-runs its own binary as the command.
func TestJournalWriteFailureExitsNonZero(t *testing.T) {
	if os.Getenv("IMITSIM_TEST_MAIN") == "1" {
		os.Args = []string{"imitsim", "-n", "1024", "-rounds", "50", "-journal", "/dev/full"}
		os.Exit(run())
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestJournalWriteFailureExitsNonZero$")
	cmd.Env = append(os.Environ(), "IMITSIM_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("imitsim -journal /dev/full: exit error %v, want a non-zero exit; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "imitsim: journal:") {
		t.Fatalf("imitsim -journal /dev/full exited %d without naming the journal; output:\n%s", exit.ExitCode(), out)
	}
}
