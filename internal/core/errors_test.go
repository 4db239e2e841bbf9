package core

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestAssembleFileMissing(t *testing.T) {
	p, err := New(smallConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AssembleFile(filepath.Join(t.TempDir(), "nope.fastq")); err == nil {
		t.Error("missing input file should fail")
	}
}

func TestAssembleFileCorrupt(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.fastq")
	if err := os.WriteFile(bad, []byte("@r\nAXGT\n+\nIIII\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := New(smallConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AssembleFile(bad); err == nil {
		t.Error("corrupt FASTQ should fail")
	}
}

func TestAssembleUnusableWorkspace(t *testing.T) {
	// A regular file where the workspace directory should be: MkdirAll
	// fails regardless of privileges.
	dir := t.TempDir()
	blocked := filepath.Join(dir, "blocked")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(t)
	cfg.Workspace = blocked
	cfg.MinOverlap = 25
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, reads := testGenomeReads(t, 800, 40, 5)
	if _, err := p.Assemble(reads); err == nil {
		t.Error("workspace colliding with a file should fail")
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := smallConfig(t)
	cfg.HostBlockPairs = -1
	if _, err := New(cfg); err == nil {
		t.Error("invalid config should be rejected at construction")
	}
}

func TestResultPhaseByNameMissing(t *testing.T) {
	res := &Result{}
	if _, ok := res.PhaseByName(PhaseSort); ok {
		t.Error("empty result should have no phases")
	}
}

// TestWriteEdgeFileStopsOnIteratorError pins that a failing edge source
// (the succinct store's LiveEdges on a corrupt stream) fails the edges.kv
// write with its own error instead of leaving a silently truncated file
// that Compress would accept.
func TestWriteEdgeFileStopsOnIteratorError(t *testing.T) {
	bad := errors.New("corrupt adjacency stream")
	i := 0
	n, err := writeEdgeFile(filepath.Join(t.TempDir(), edgeFileName), nil,
		func() (persistedEdge, bool, error) {
			if i == 3 {
				return persistedEdge{}, false, bad
			}
			i++
			return persistedEdge{U: uint32(i), V: uint32(i + 1), Len: 50}, true, nil
		})
	if !errors.Is(err, bad) {
		t.Fatalf("writeEdgeFile err = %v, want the iterator's error", err)
	}
	if n != 3 {
		t.Errorf("wrote %d edges before the error, want 3", n)
	}
}
