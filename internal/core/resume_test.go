package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dna"
)

// errInjectedCrash simulates the process dying right after a stage commit.
var errInjectedCrash = errors.New("injected crash")

// coldContigs runs the pipeline cold in its own workspace and returns the
// reference FASTA bytes a resumed run must reproduce exactly.
func coldContigs(t *testing.T, mutate func(*Config)) []byte {
	t.Helper()
	cfg := smallConfig(t)
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Assemble(testResumeReads(t))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(res.ContigPath)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func testResumeReads(t *testing.T) *dna.ReadSet {
	t.Helper()
	_, reads := testGenomeReads(t, 2000, 48, 10)
	return reads
}

func TestResumeAfterEachStage(t *testing.T) {
	want := coldContigs(t, nil)
	reads := testResumeReads(t)

	stages := []PhaseName{PhaseMap, PhaseSort, PhaseReduce, PhaseCompress}
	for i, crashAfter := range stages {
		t.Run(fmt.Sprintf("crash_after_%s", crashAfter), func(t *testing.T) {
			cfg := smallConfig(t)

			// First run: crash immediately after crashAfter commits.
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p.FaultHook = func(stage PhaseName) error {
				if stage == crashAfter {
					return errInjectedCrash
				}
				return nil
			}
			if _, err := p.Assemble(reads); !errors.Is(err, errInjectedCrash) {
				t.Fatalf("interrupted run error = %v, want injected crash", err)
			}

			// Second run: same config + Resume resumes from the manifest.
			cfg.Resume = true
			p2, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p2.Assemble(reads)
			if err != nil {
				t.Fatalf("resumed run failed: %v", err)
			}
			if len(res.CachedStages) != i+1 {
				t.Fatalf("CachedStages = %v, want the %d committed stages", res.CachedStages, i+1)
			}
			for j := 0; j <= i; j++ {
				if res.CachedStages[j] != string(stages[j]) {
					t.Fatalf("CachedStages = %v, want prefix of %v", res.CachedStages, stages)
				}
			}
			got, err := os.ReadFile(res.ContigPath)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatal("resumed output differs from cold run")
			}
		})
	}
}

func TestResumeFullyCachedRun(t *testing.T) {
	reads := testResumeReads(t)
	cfg := smallConfig(t)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := p.Assemble(reads)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(first.ContigPath)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Resume = true
	p2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p2.Assemble(reads)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CachedStages) != len(pipelineStages) {
		t.Fatalf("CachedStages = %v, want all %d stages", res.CachedStages, len(pipelineStages))
	}
	got, err := os.ReadFile(res.ContigPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("fully-cached rerun changed the output")
	}
	if res.AcceptedEdges != first.AcceptedEdges || res.CandidateEdges != first.CandidateEdges ||
		res.SortDiskPasses != first.SortDiskPasses {
		t.Errorf("cached counters differ: %+v vs %+v", res, first)
	}
}

// TestResumePreviousManifestVersionRunsCold pins that a manifest written
// under an older schema (version 1 fingerprinted the removed FullGraph
// and TransitiveFuzz knobs) never validates: the resumed run re-executes
// every stage and reproduces the cold output byte for byte.
func TestResumePreviousManifestVersionRunsCold(t *testing.T) {
	reads := testResumeReads(t)
	for _, backend := range Backends {
		t.Run(backend, func(t *testing.T) {
			cfg := smallConfig(t)
			cfg.GraphBackend = backend
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			first, err := p.Assemble(reads)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(first.ContigPath)
			if err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(cfg.Workspace, ManifestName)
			m, err := loadManifest(path)
			if err != nil {
				t.Fatal(err)
			}
			m.Version = manifestVersion - 1
			if err := m.save(path); err != nil {
				t.Fatal(err)
			}

			cfg.Resume = true
			p2, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p2.Assemble(reads)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.CachedStages) != 0 {
				t.Fatalf("version-%d manifest replayed stages %v", manifestVersion-1, res.CachedStages)
			}
			got, err := os.ReadFile(res.ContigPath)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatal("re-run over an old manifest changed the output")
			}
			if res.TotalModeled != first.TotalModeled || res.AcceptedEdges != first.AcceptedEdges {
				t.Errorf("re-run modeled/accepted %v/%d, cold %v/%d",
					res.TotalModeled, res.AcceptedEdges, first.TotalModeled, first.AcceptedEdges)
			}
		})
	}
}

func TestResumeInvalidatedByConfigChange(t *testing.T) {
	reads := testResumeReads(t)
	cfg := smallConfig(t)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Assemble(reads); err != nil {
		t.Fatal(err)
	}

	// Any output-relevant config change must invalidate the manifest.
	cfg.Resume = true
	cfg.MinOverlap = 33
	p2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p2.Assemble(reads)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CachedStages) != 0 {
		t.Fatalf("changed config still replayed stages %v", res.CachedStages)
	}
}

func TestResumeInvalidatedByInputChange(t *testing.T) {
	reads := testResumeReads(t)
	cfg := smallConfig(t)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Assemble(reads); err != nil {
		t.Fatal(err)
	}

	cfg.Resume = true
	_, other := testGenomeReads(t, 2100, 48, 10)
	p2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p2.Assemble(other)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CachedStages) != 0 {
		t.Fatalf("changed input still replayed stages %v", res.CachedStages)
	}
}

func TestResumeInvalidatedByCorruptArtifact(t *testing.T) {
	want := coldContigs(t, nil)
	reads := testResumeReads(t)
	cfg := smallConfig(t)

	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.FaultHook = func(stage PhaseName) error {
		if stage == PhaseSort {
			return errInjectedCrash
		}
		return nil
	}
	if _, err := p.Assemble(reads); !errors.Is(err, errInjectedCrash) {
		t.Fatalf("interrupted run error = %v", err)
	}

	// Flip a byte in one committed sorted partition: the checksum no longer
	// matches, so resume must fall back to a full, correct re-run.
	partDir := filepath.Join(cfg.Workspace, "partitions")
	entries, err := os.ReadDir(partDir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".sorted" {
			continue
		}
		path := filepath.Join(partDir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			continue
		}
		data[0] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted = true
		break
	}
	if !corrupted {
		t.Fatal("no sorted partition found to corrupt")
	}

	cfg.Resume = true
	p2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p2.Assemble(reads)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CachedStages) != 0 {
		t.Fatalf("corrupted artifact still replayed stages %v", res.CachedStages)
	}
	got, err := os.ReadFile(res.ContigPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("re-run after corruption differs from cold run")
	}
}

func TestResumeWithoutManifestRunsCold(t *testing.T) {
	reads := testResumeReads(t)
	cfg := smallConfig(t)
	cfg.Resume = true // nothing to resume from: must behave like a cold run
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Assemble(reads)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CachedStages) != 0 {
		t.Fatalf("CachedStages = %v on an empty workspace", res.CachedStages)
	}
	if len(res.Contigs) == 0 {
		t.Fatal("no contigs produced")
	}
}
