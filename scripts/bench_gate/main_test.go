package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as the bench_gate command:
// with BENCH_GATE_RUN_MAIN set, the process runs main on the arguments
// after "--" instead of the test suite.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_GATE_RUN_MAIN") == "1" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append([]string{"bench_gate"}, os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// gate writes the two documents to files, runs the command on them, and
// returns its exit code and stdout.
func gate(t *testing.T, baseline, current string) (int, string) {
	t.Helper()
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.json")
	curPath := filepath.Join(dir, "cur.json")
	if err := os.WriteFile(basePath, []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(curPath, []byte(current), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "--", basePath, curPath)
	cmd.Env = append(os.Environ(), "BENCH_GATE_RUN_MAIN=1")
	var out strings.Builder
	cmd.Stdout = &out
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), out.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, out.String()
}

const twoRows = `{"rows": [
  {"name": "H.Chr14/0.10/greedy", "modeledS": 1.0, "wallS": 0.2},
  {"name": "H.Chr14/0.10/succinct", "modeledS": 2.0, "wallS": 0.3}
]}`

// TestGateKeysRowsByName: a reordered table compares each row against
// its namesake, so a row that got cheaper cannot hide a row that got
// dearer behind an index shift.
func TestGateKeysRowsByName(t *testing.T) {
	reordered := `{"rows": [
  {"name": "H.Chr14/0.10/succinct", "modeledS": 2.0, "wallS": 9.9},
  {"name": "H.Chr14/0.10/greedy", "modeledS": 1.0, "wallS": 9.9}
]}`
	if code, out := gate(t, twoRows, reordered); code != 0 {
		t.Fatalf("reordered rows: exit %d, want 0:\n%s", code, out)
	}
	regressed := `{"rows": [
  {"name": "H.Chr14/0.10/succinct", "modeledS": 1.0},
  {"name": "H.Chr14/0.10/greedy", "modeledS": 2.0}
]}`
	code, out := gate(t, twoRows, regressed)
	if code != 1 || !strings.Contains(out, "REGRESSION rows.H.Chr14/0.10/greedy.modeledS") {
		t.Fatalf("regressed row: exit %d, want 1 naming the greedy row:\n%s", code, out)
	}
}

// TestGateFailsOnRemovedRow: dropping a gated row from the current run
// fails the gate instead of silently shrinking the comparison.
func TestGateFailsOnRemovedRow(t *testing.T) {
	oneRow := `{"rows": [{"name": "H.Chr14/0.10/greedy", "modeledS": 1.0}]}`
	code, out := gate(t, twoRows, oneRow)
	if code != 1 || !strings.Contains(out, "MISSING rows.H.Chr14/0.10/succinct.modeledS") {
		t.Fatalf("removed row: exit %d, want 1 naming the succinct row:\n%s", code, out)
	}
}

// TestGateFailsOnMissingPath: a gated baseline metric absent from the
// current file fails the gate, while a new current-only metric does not.
func TestGateFailsOnMissingPath(t *testing.T) {
	base := `{"sort": {"modeledS": 1.0, "hostPeakB": 100}}`
	code, out := gate(t, base, `{"sort": {"modeledS": 1.0}}`)
	if code != 1 || !strings.Contains(out, "MISSING sort.hostPeakB") {
		t.Fatalf("missing path: exit %d, want 1 naming sort.hostPeakB:\n%s", code, out)
	}
	code, out = gate(t, base, `{"sort": {"modeledS": 1.0, "hostPeakB": 100, "reduceModeledS": 5.0}}`)
	if code != 0 {
		t.Fatalf("current-only path: exit %d, want 0:\n%s", code, out)
	}
}
