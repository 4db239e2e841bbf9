package cluster

import (
	"os"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestDistributedSuccinctMatchesSingleNode pins the succinct backend's
// cluster/single-node parity: the master feeds the shipped candidates
// through the same core.ReduceSuccinct a single-node run uses, and the
// sorted spill makes the store depend only on the edge set — so the
// distributed run must reproduce the single-node edge counts and contig
// FASTA byte for byte at every node count.
func TestDistributedSuccinctMatchesSingleNode(t *testing.T) {
	genome, reads := testData(t)
	scfg := singleConfig(t)
	scfg.GraphBackend = core.BackendSuccinct
	single, err := core.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := single.Assemble(reads)
	if err != nil {
		t.Fatal(err)
	}
	sfasta, err := os.ReadFile(sres.ContigPath)
	if err != nil {
		t.Fatal(err)
	}

	for _, nodes := range []int{1, 2, 4} {
		cfg := clusterConfig(t, nodes)
		cfg.GraphBackend = core.BackendSuccinct
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dres, err := cl.Assemble(reads)
		if err != nil {
			t.Fatal(err)
		}
		if dres.AcceptedEdges != sres.AcceptedEdges || dres.ReducedEdges != sres.ReducedEdges {
			t.Errorf("nodes=%d: accepted/reduced = %d/%d, single-node %d/%d",
				nodes, dres.AcceptedEdges, dres.ReducedEdges,
				sres.AcceptedEdges, sres.ReducedEdges)
		}
		if dres.ReducedEdges == 0 {
			t.Errorf("nodes=%d: succinct reduction removed no transitive edges", nodes)
		}
		dfasta, err := os.ReadFile(dres.ContigPath)
		if err != nil {
			t.Fatal(err)
		}
		if string(dfasta) != string(sfasta) {
			t.Fatalf("nodes=%d: cluster succinct FASTA differs from single-node succinct FASTA", nodes)
		}
		gs, grc := genome.String(), genome.ReverseComplement().String()
		for i, c := range dres.Contigs {
			if !strings.Contains(gs, c.String()) && !strings.Contains(grc, c.String()) {
				t.Errorf("nodes=%d: contig %d not a genome substring", nodes, i)
			}
		}
	}
}

// TestClusterBackendValidation mirrors the core validation surface:
// unknown engines and the removed spmat engine are rejected, the latter
// with an error naming its replacement.
func TestClusterBackendValidation(t *testing.T) {
	for _, backend := range []string{"bogus", "spmat"} {
		cfg := clusterConfig(t, 2)
		cfg.GraphBackend = backend
		_, err := New(cfg)
		if err == nil {
			t.Fatalf("GraphBackend %q accepted", backend)
		}
		if !strings.Contains(err.Error(), core.BackendSuccinct) {
			t.Errorf("GraphBackend %q: error %q does not name %s", backend, err, core.BackendSuccinct)
		}
	}
}

// TestClusterBackendChangesFingerprint keeps the per-node manifests from
// resuming across an engine switch, while ""/greedy stay equivalent.
func TestClusterBackendChangesFingerprint(t *testing.T) {
	base := clusterConfig(t, 2)
	greedy := base
	greedy.GraphBackend = core.BackendGreedy
	if base.fingerprint(0) != greedy.fingerprint(0) {
		t.Error("empty backend and explicit greedy must fingerprint identically")
	}
	succ := base
	succ.GraphBackend = core.BackendSuccinct
	if greedy.fingerprint(0) == succ.fingerprint(0) {
		t.Error("switching greedy to succinct must change the node fingerprint")
	}
}

// TestClusterSuccinctFingerprint keeps per-node manifests from resuming
// across a switch to (or from) the succinct engine, on every node.
func TestClusterSuccinctFingerprint(t *testing.T) {
	base := clusterConfig(t, 2)
	succ := base
	succ.GraphBackend = core.BackendSuccinct
	for node := 0; node < base.Nodes; node++ {
		if base.fingerprint(node) == succ.fingerprint(node) {
			t.Errorf("node %d: succinct backend must change the node fingerprint", node)
		}
	}
}
