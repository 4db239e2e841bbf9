package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as the lasagna command: with
// LASAGNA_RUN_MAIN set, the process runs main on the arguments after
// "--" instead of the test suite.
func TestMain(m *testing.M) {
	if os.Getenv("LASAGNA_RUN_MAIN") == "1" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append([]string{"lasagna"}, os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs the command with args and returns its exit code and stderr.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"--"}, args...)...)
	cmd.Env = append(os.Environ(), "LASAGNA_RUN_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), stderr.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stderr.String()
}

// TestRemovedEnginesAreUsageErrors pins that the removed graph engines
// fail as usage errors that name their replacement, before any input is
// read, instead of silently running another engine.
func TestRemovedEnginesAreUsageErrors(t *testing.T) {
	ws := t.TempDir()
	for _, args := range [][]string{
		{"-in", "missing.fastq", "-workspace", ws, "-graph-backend", "spmat"},
		{"-in", "missing.fastq", "-workspace", ws, "-fullgraph"},
		{"-in", "missing.fastq", "-workspace", ws, "-graph-backend", "bogus"},
	} {
		code, stderr := runCLI(t, args...)
		if code != 2 {
			t.Errorf("%v: exit code %d, want 2 (usage error); stderr:\n%s", args, code, stderr)
		}
		if !strings.Contains(stderr, "succinct") {
			t.Errorf("%v: usage error does not name succinct:\n%s", args, stderr)
		}
		if strings.Contains(stderr, "missing.fastq") {
			t.Errorf("%v: input was opened before the engine was rejected:\n%s", args, stderr)
		}
	}
}
