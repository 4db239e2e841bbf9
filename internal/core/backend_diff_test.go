package core

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/contig"
	"repro/internal/dna"
	"repro/internal/kvio"
	"repro/internal/quality"
	"repro/internal/readsim"
	"repro/internal/sgraph"
)

// The backend differential harness runs the full pipeline under both
// graph engines — greedy and the succinct string graph — over a spread
// of read profiles, and pins the contract between them and the Myers
// sweep oracle (sgraph) fed the same candidate overlaps:
//
//   - succinct stores the same string graph as the oracle and removes at
//     least as many transitive edges (the masked two-hop pass sees
//     witness pairs the sweep's in-play pruning skips).
//   - When the removed-edge counts agree, the live edge sets agree
//     (superset + equal cardinality), so the contigs must be identical
//     to the oracle's unitigs.
//   - The succinct FASTA is either byte-identical to the default greedy
//     pipeline's output, or it is a documented refinement pinned by a
//     golden file under testdata/golden/ — any other drift fails.
//
// Regenerate the goldens after an intentional engine change with
//
//	go test ./internal/core -run TestBackendDifferential -update
var updateGolden = flag.Bool("update", false, "rewrite backend differential golden FASTA files")

type backendShape struct {
	name   string
	genome readsim.GenomeParams
	reads  readsim.ReadParams
	mutate func(*Config)
	// clean marks repeat-free genomes where every engine must produce
	// zero misassemblies and only genome-substring contigs.
	clean bool
}

// backendShapes spans the differential surface: coverage density, read
// length, repeat content, singleton emission, and the strandedness of
// the simulated library. The overhang slack of the reduction itself is
// covered at package level (internal/succinct), where it is a knob.
var backendShapes = []backendShape{
	{
		name:   "dense_short",
		genome: readsim.GenomeParams{Length: 4000, Seed: 601},
		reads:  readsim.ReadParams{ReadLen: 64, Coverage: 14, Seed: 602},
		mutate: func(c *Config) { c.DedupeReads = true; c.VerifyOverlaps = true },
		clean:  true,
	},
	{
		name:   "long_reads",
		genome: readsim.GenomeParams{Length: 6000, Seed: 611},
		reads:  readsim.ReadParams{ReadLen: 100, Coverage: 10, Seed: 612},
		mutate: func(c *Config) { c.DedupeReads = true },
		clean:  true,
	},
	{
		name:   "sparse_singletons",
		genome: readsim.GenomeParams{Length: 3000, Seed: 621},
		reads:  readsim.ReadParams{ReadLen: 64, Coverage: 6, Seed: 622},
		mutate: func(c *Config) { c.DedupeReads = true; c.IncludeSingletons = true },
		clean:  true,
	},
	{
		name: "repeats",
		genome: readsim.GenomeParams{
			Length: 5000, RepeatLen: 200, RepeatCount: 3, Seed: 631,
		},
		reads:  readsim.ReadParams{ReadLen: 64, Coverage: 16, Seed: 632},
		mutate: func(c *Config) { c.DedupeReads = true },
		clean:  false,
	},
	{
		name:   "overhang_fuzz",
		genome: readsim.GenomeParams{Length: 4500, Seed: 641},
		reads:  readsim.ReadParams{ReadLen: 72, Coverage: 12, Seed: 642},
		mutate: func(c *Config) { c.DedupeReads = true },
		clean:  true,
	},
	{
		name:   "forward_only",
		genome: readsim.GenomeParams{Length: 3500, Seed: 651},
		reads:  readsim.ReadParams{ReadLen: 64, Coverage: 12, Seed: 652, ForwardOnly: true},
		mutate: func(c *Config) { c.DedupeReads = true },
		clean:  true,
	},
}

// runBackendShape assembles one shape under one engine and returns the
// result plus the FASTA bytes written to disk. The run keeps its
// intermediates, so its sorted partitions can feed sgraphOracle.
func runBackendShape(t *testing.T, shape backendShape, engine string) (*Result, []byte, Config) {
	t.Helper()
	genome := readsim.Genome(shape.genome)
	reads := readsim.Simulate(genome, shape.reads)
	cfg := smallConfig(t)
	shape.mutate(&cfg)
	cfg.GraphBackend = engine
	cfg.KeepIntermediate = true
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Assemble(reads)
	if err != nil {
		t.Fatalf("engine %s: %v", engine, err)
	}
	fasta, err := os.ReadFile(res.ContigPath)
	if err != nil {
		t.Fatalf("engine %s: %v", engine, err)
	}
	return res, fasta, cfg
}

// oracleGraph is the Myers sweep's view of one run: its edge counts and
// the contigs its unitigs spell.
type oracleGraph struct {
	accepted, reduced int64
	contigs           []dna.Seq
}

// sgraphOracle replays the sorted partitions a run under cfg left in its
// workspace through the same ordered overlap reduce into the Myers-sweep
// string graph, and spells its unitigs.
func sgraphOracle(t *testing.T, cfg Config, reads *dna.ReadSet) oracleGraph {
	t.Helper()
	rs := reads
	if cfg.DedupeReads {
		rs, _ = dna.Deduplicate(reads)
	}
	partDir := filepath.Join(cfg.Workspace, "partitions")
	lengths := map[int]int64{}
	for l := cfg.MinOverlap; l < rs.MaxLen(); l++ {
		if _, err := os.Stat(kvio.PartitionPath(partDir, kvio.Suffix, l) + ".sorted"); err == nil {
			lengths[l] = 0
		}
	}
	if len(lengths) == 0 {
		t.Fatal("run left no sorted partitions to replay")
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fg := sgraph.New(rs.NumReads())
	err = p.runReduce(context.Background(), rs, partDir, lengths, &Result{}, func(u, v uint32, l uint16) {
		fg.AddOverlap(u, v, l)
	})
	if err != nil {
		t.Fatal(err)
	}
	o := oracleGraph{reduced: fg.TransitiveReduce(rs.VertexLen, 0)}
	o.accepted = fg.NumEdges(false)
	paths := fg.Unitigs(rs.VertexLen, cfg.IncludeSingletons)
	o.contigs = contig.Generate(contig.Config{Device: p.Device()}, paths, rs)
	return o
}

func goldenPath(shape string) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("backend_%s.fasta", shape))
}

func TestBackendDifferential(t *testing.T) {
	for _, shape := range backendShapes {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			_, greedyFasta, _ := runBackendShape(t, shape, BackendGreedy)
			succ, succFasta, succCfg := runBackendShape(t, shape, BackendSuccinct)
			oracle := sgraphOracle(t, succCfg, readsim.Simulate(readsim.Genome(shape.genome), shape.reads))

			// The masked two-hop pass removes a superset of the Myers
			// sweep's transitive edges — never fewer — from the same graph.
			if succ.ReducedEdges < oracle.reduced {
				t.Errorf("succinct removed %d transitive edges, the sgraph oracle removed %d",
					succ.ReducedEdges, oracle.reduced)
			}
			if succ.AcceptedEdges+succ.ReducedEdges != oracle.accepted+oracle.reduced {
				t.Errorf("engines saw different string graphs: succinct %d+%d edges, oracle %d+%d",
					succ.AcceptedEdges, succ.ReducedEdges, oracle.accepted, oracle.reduced)
			}

			// Superset + equal count ⇒ equal removed set ⇒ identical live
			// graph ⇒ identical unitigs, base for base.
			if succ.ReducedEdges == oracle.reduced {
				same := len(succ.Contigs) == len(oracle.contigs)
				for i := 0; same && i < len(succ.Contigs); i++ {
					same = succ.Contigs[i].Equal(oracle.contigs[i])
				}
				if !same {
					t.Errorf("equal removed-edge counts (%d) but succinct contigs differ from the oracle's unitigs",
						succ.ReducedEdges)
				}
			}

			// Against the default greedy pipeline the output is either
			// byte-identical or a golden-pinned refinement.
			golden := goldenPath(shape.name)
			if *updateGolden {
				if bytes.Equal(succFasta, greedyFasta) {
					if err := os.Remove(golden); err != nil && !os.IsNotExist(err) {
						t.Fatal(err)
					}
				} else {
					if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(golden, succFasta, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			if bytes.Equal(succFasta, greedyFasta) {
				if _, err := os.Stat(golden); err == nil {
					t.Errorf("succinct FASTA matches greedy but a stale golden exists; rerun with -update")
				}
			} else {
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatalf("succinct FASTA diverges from greedy and no golden pins it (rerun with -update): %v", err)
				}
				if !bytes.Equal(succFasta, want) {
					t.Errorf("succinct FASTA drifted from the committed golden %s", golden)
				}
			}

			// Quality floor: the refinement must never invent sequence.
			genome := readsim.Genome(shape.genome)
			rep := quality.Evaluate(genome, succ.Contigs)
			if shape.clean {
				if rep.MisassembledContigs != 0 {
					t.Errorf("succinct produced %d misassembled contigs", rep.MisassembledContigs)
				}
				for i, c := range succ.Contigs {
					if !isSubstring(genome, c) {
						t.Errorf("succinct contig %d is not a genome substring", i)
					}
				}
			}
			if rep.CoverageFraction() < 0.80 {
				t.Errorf("succinct coverage = %.3f", rep.CoverageFraction())
			}
		})
	}
}
